// Property tests over composed chunnel stacks (the paper's
// composability requirement, §2): randomly chosen pipelines of
// byte-transforming chunnels must deliver every payload intact, in both
// directions, both when hand-wrapped and when negotiated end to end
// through real endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string_view>
#include <thread>

#include "chunnels/compress.hpp"
#include "chunnels/encrypt.hpp"
#include "chunnels/framing.hpp"
#include "chunnels/ordering.hpp"
#include "chunnels/reliable.hpp"
#include "chunnels/serialize_chunnel.hpp"
#include "test_helpers.hpp"
#include "util/rand.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

// The menu of chunnel types safe to compose in any order on a lossless
// in-memory link. (shard/ordered_mcast/local_or_remote are placement
// chunnels with their own data planes and are tested separately.)
const char* kMenu[] = {"serialize", "compress", "encrypt",
                       "frame",     "reliable", "ordering"};

std::vector<ChunnelSpec> random_chain(Rng& rng) {
  std::vector<ChunnelSpec> chain;
  // 1..4 distinct stages in random order.
  std::vector<const char*> pool(std::begin(kMenu), std::end(kMenu));
  size_t n = 1 + rng.next_below(4);
  for (size_t i = 0; i < n && !pool.empty(); i++) {
    size_t pick = rng.next_below(pool.size());
    chain.emplace_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
  }
  return chain;
}

Bytes random_payload(Rng& rng) {
  // Mix of compressible and incompressible content, 0..2000 bytes.
  Bytes b(rng.next_below(2001));
  bool runs = rng.chance(0.5);
  for (size_t i = 0; i < b.size(); i++)
    b[i] = runs ? static_cast<uint8_t>('a' + (i / 64) % 4)
                : static_cast<uint8_t>(rng.next_below(256));
  return b;
}

std::string chain_str(const std::vector<ChunnelSpec>& chain) {
  std::string s;
  for (const auto& c : chain) s += c.type + " |> ";
  return s + "(base)";
}

class NegotiatedStackProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NegotiatedStackProperty, RandomPipelinesDeliverEverything) {
  Rng rng(GetParam());
  auto world = TestWorld::make(GetParam());
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");

  for (int round = 0; round < 6; round++) {
    auto chain = random_chain(rng);
    SCOPED_TRACE(chain_str(chain));

    auto listener = srv_rt->endpoint("prop-srv", ChunnelDag::chain(chain))
                        .value()
                        .listen(Addr::mem("h1", 0))
                        .value();
    auto conn = cli_rt->endpoint("prop-cli", ChunnelDag::empty())
                    .value()
                    .connect(listener->addr(), Deadline::after(seconds(10)));
    ASSERT_TRUE(conn.ok()) << conn.error().to_string();
    auto srv_conn = listener->accept(Deadline::after(seconds(10))).value();

    for (int i = 0; i < 8; i++) {
      Bytes payload = random_payload(rng);
      // Client -> server.
      ASSERT_TRUE(conn.value()->send(Msg(Bytes(payload))).ok());
      auto got = srv_conn->recv(Deadline::after(seconds(10)));
      ASSERT_TRUE(got.ok()) << got.error().to_string();
      ASSERT_EQ(got.value().payload, payload);
      // Server -> client.
      Bytes reply = random_payload(rng);
      ASSERT_TRUE(srv_conn->send(Msg(Bytes(reply))).ok());
      auto back = conn.value()->recv(Deadline::after(seconds(10)));
      ASSERT_TRUE(back.ok()) << back.error().to_string();
      ASSERT_EQ(back.value().payload, reply);
    }
    conn.value()->close();
    srv_conn->close();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NegotiatedStackProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// The same pipelines must also survive a lossy link once `reliable` is
// the innermost stage.
class LossyStackProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LossyStackProperty, TransformsOverReliableSurviveLoss) {
  Rng rng(GetParam() ^ 0x1111);
  auto world = TestWorld::make(GetParam());
  MemNetwork::Config lossy;
  lossy.drop_rate = 0.15;
  lossy.seed = GetParam();
  world.mem = MemNetwork::create(lossy);
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");

  // Random transform prefix over a reliable tail.
  std::vector<ChunnelSpec> chain;
  const char* transforms[] = {"serialize", "compress", "encrypt", "frame"};
  for (const char* t : transforms)
    if (rng.chance(0.6)) chain.emplace_back(t);
  ChunnelArgs rto;
  rto.set("rto_us", "15000");
  chain.emplace_back("reliable", rto);
  SCOPED_TRACE(chain_str(chain));

  auto listener = srv_rt->endpoint("lossy-srv", ChunnelDag::chain(chain))
                      .value()
                      .listen(Addr::mem("h1", 0))
                      .value();
  auto conn = cli_rt->endpoint("lossy-cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(30)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  auto srv_conn = listener->accept(Deadline::after(seconds(30))).value();

  constexpr int kMsgs = 25;
  std::thread sender([&] {
    for (int i = 0; i < kMsgs; i++)
      ASSERT_TRUE(conn.value()->send(Msg::of("msg-" + std::to_string(i))).ok());
  });
  for (int i = 0; i < kMsgs; i++) {
    auto got = srv_conn->recv(Deadline::after(seconds(60)));
    ASSERT_TRUE(got.ok()) << i << ": " << got.error().to_string();
    EXPECT_EQ(got.value().payload_str(), "msg-" + std::to_string(i));
  }
  sender.join();
  conn.value()->close();
  srv_conn->close();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyStackProperty,
                         ::testing::Values(11, 22, 33, 44));

// A send must not wait for a recv parked on the same connection, for
// any menu stage and for the full six-deep stack: a stage whose recv
// holds a lock across the blocking pull from below must not need that
// lock to send. The stacks are wrapped by hand over a raw mem
// transport, whose recv blocks without the endpoint layer's periodic
// wakeups (those would hide a stalled send behind a slice timeout).
ChunnelImplPtr menu_impl(std::string_view type) {
  if (type == "serialize") return std::make_shared<BinarySerializeChunnel>();
  if (type == "compress") return std::make_shared<CompressChunnel>();
  if (type == "encrypt") return std::make_shared<SwEncryptChunnel>();
  if (type == "frame") return std::make_shared<FrameChunnel>();
  if (type == "reliable") return std::make_shared<ReliableChunnel>();
  if (type == "ordering") return std::make_shared<OrderingChunnel>();
  return nullptr;
}

class ContendedStackProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ContendedStackProperty, SendCompletesWhileRecvIsParked) {
  // Outermost first, as in a DAG chain.
  std::vector<ChunnelImplPtr> chain;
  std::string_view types = GetParam();
  while (!types.empty()) {
    auto comma = types.find(',');
    chain.push_back(menu_impl(types.substr(0, comma)));
    ASSERT_TRUE(chain.back()) << types;
    types = comma == std::string_view::npos ? "" : types.substr(comma + 1);
  }
  auto net = MemNetwork::create(MemNetwork::Config{});
  auto ta = net->bind(Addr::mem("a", 1)).value();
  auto tb = net->bind(Addr::mem("b", 1)).value();
  Addr addr_a = ta->local_addr(), addr_b = tb->local_addr();
  auto build = [&](TransportPtr t, Addr peer, Role role) {
    ConnPtr c = std::make_shared<testing_support::FixedPeerConnection>(
        std::move(t), std::move(peer));
    WrapContext ctx;
    ctx.role = role;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
      c = (*it)->wrap(std::move(c), ctx).value();
    return c;
  };
  ConnPtr a = build(std::move(ta), addr_b, Role::client);
  ConnPtr b = build(std::move(tb), addr_a, Role::server);

  std::thread parked([&] {
    auto r = b->recv(Deadline::never());
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(r.value().payload_str(), "unpark");
  });
  sleep_for(ms(20));  // let the receiver block below the stack

  std::atomic<int64_t> took_ns{-1};
  std::thread sender([&] {
    Stopwatch sw;
    auto r = b->send(Msg::of("while-parked"));
    took_ns = sw.elapsed().count();
    EXPECT_TRUE(r.ok()) << r.error().to_string();
  });
  Stopwatch wait;
  while (took_ns.load() < 0 && wait.elapsed() < seconds(2)) sleep_for(ms(1));
  Duration took =
      took_ns.load() < 0 ? wait.elapsed() : Duration(took_ns.load());

  // Unparking the receiver also frees a send stuck behind it.
  ASSERT_TRUE(a->send(Msg::of("unpark")).ok());
  parked.join();
  sender.join();
  EXPECT_LT(took, ms(50)) << "send blocked behind the parked recv";
  auto got = a->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got.value().payload_str(), "while-parked");
  a->close();
  b->close();
}

INSTANTIATE_TEST_SUITE_P(
    Menu, ContendedStackProperty,
    ::testing::Values("serialize", "compress", "encrypt", "frame", "reliable",
                      "ordering",
                      "serialize,compress,encrypt,frame,ordering,reliable"),
    [](const ::testing::TestParamInfo<const char*>& p) {
      std::string name = p.param;
      std::replace(name.begin(), name.end(), ',', '_');
      return name;
    });

// Empty payloads and max-size payloads traverse every single-stage
// pipeline.
class EdgePayloadProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(EdgePayloadProperty, EmptyAndLargePayloads) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  std::vector<ChunnelSpec> chain{ChunnelSpec(GetParam())};
  auto listener = srv_rt->endpoint("edge-srv", ChunnelDag::chain(chain))
                      .value()
                      .listen(Addr::mem("h1", 0))
                      .value();
  auto conn = cli_rt->endpoint("edge-cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();

  for (size_t size : {size_t{0}, size_t{1}, size_t{32000}}) {
    Bytes payload(size, 0x7e);
    ASSERT_TRUE(conn->send(Msg(Bytes(payload))).ok()) << size;
    auto got = srv_conn->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(got.ok()) << size << ": " << got.error().to_string();
    EXPECT_EQ(got.value().payload, payload) << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Stages, EdgePayloadProperty,
                         ::testing::Values("serialize", "compress", "encrypt",
                                           "frame", "reliable", "ordering",
                                           "batch", "tcpish", "dedup",
                                           "keepalive", "telemetry"));

}  // namespace
}  // namespace bertha
