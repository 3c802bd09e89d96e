// Runtime configuration validation, handshake idempotence, and the
// anycast connection path (§3.2 "Anycast"): dialing a virtual address
// that the network routes to the nearest concrete instance.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/wire.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

// --- Runtime::create validation ---

TEST(RuntimeTest, RequiresTransports) {
  RuntimeConfig cfg;
  auto r = Runtime::create(cfg);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::invalid_argument);
}

TEST(RuntimeTest, FillsDefaults) {
  RuntimeConfig cfg;
  cfg.transports = std::make_shared<DefaultTransportFactory>();
  auto rt = Runtime::create(cfg).value();
  EXPECT_FALSE(rt->config().host_id.empty());
  EXPECT_FALSE(rt->config().process_id.empty());
  EXPECT_NE(rt->config().discovery, nullptr);
  EXPECT_NE(rt->config().policy, nullptr);
}

TEST(RuntimeTest, RejectsBadHandshakeParams) {
  RuntimeConfig cfg;
  cfg.transports = std::make_shared<DefaultTransportFactory>();
  cfg.handshake_retries = -1;
  EXPECT_FALSE(Runtime::create(cfg).ok());
  cfg.handshake_retries = 1;
  cfg.handshake_timeout = Duration::zero();
  EXPECT_FALSE(Runtime::create(cfg).ok());
}

TEST(RuntimeTest, EndpointRejectsInvalidDag) {
  auto world = TestWorld::make();
  auto rt = world.runtime("h");
  // Cycle.
  ChunnelDag cyclic;
  auto a = cyclic.add_node(ChunnelSpec("a"));
  auto b = cyclic.add_node(ChunnelSpec("b"));
  ASSERT_TRUE(cyclic.add_edge(a, b).ok());
  ASSERT_TRUE(cyclic.add_edge(b, a).ok());
  EXPECT_FALSE(rt->endpoint("x", cyclic).ok());
  // Branching (valid DAG but not a chain).
  ChunnelDag branching;
  auto r = branching.add_node(ChunnelSpec("a"));
  auto c1 = branching.add_node(ChunnelSpec("b"));
  auto c2 = branching.add_node(ChunnelSpec("c"));
  ASSERT_TRUE(branching.add_edge(r, c1).ok());
  ASSERT_TRUE(branching.add_edge(r, c2).ok());
  EXPECT_FALSE(rt->endpoint("x", branching).ok());
}

TEST(RuntimeTest, UniqueIdsAreUnique) {
  std::set<std::string> ids;
  for (int i = 0; i < 1000; i++) ids.insert(make_unique_id());
  EXPECT_EQ(ids.size(), 1000u);
}

// --- handshake idempotence ---

TEST(HandshakeTest, DuplicateHelloYieldsOneConnection) {
  // A retransmitted hello (same source, same process) must be answered
  // from the accept cache, not create a second connection.
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto listener = srv_rt->endpoint("srv", ChunnelDag::empty())
                      .value()
                      .listen(Addr::mem("h1", 900))
                      .value();

  auto t = world.mem->bind(Addr::mem("h2", 0)).value();
  HelloMsg hello;
  hello.endpoint_name = "dup-test";
  hello.host_id = "h2";
  hello.process_id = "p-fixed";
  Bytes frame = encode_frame(MsgKind::hello, 0, encode_hello(hello));

  std::optional<uint64_t> token;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(t->send_to(listener->addr(), frame).ok());
    auto pkt = t->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(pkt.ok());
    auto f = decode_frame(pkt.value().payload);
    ASSERT_TRUE(f.ok());
    ASSERT_EQ(f.value().kind, MsgKind::accept);
    auto acc = decode_accept(f.value().payload).value();
    if (!token) token = acc.token;
    EXPECT_EQ(acc.token, *token) << "retransmit created a new connection";
  }
  EXPECT_EQ(listener->connections_accepted(), 1u);
}

// A listener negotiates on its runtime's reactor workers, and a
// negotiation blocks on its catalogue read. The discovery client's
// reader must therefore never queue behind those workers: with one
// worker, two connects each waiting on a slow catalogue read must both
// complete well inside their deadline, not wait out RPC timeouts.
TEST(HandshakeTest, NegotiationsOnOneWorkerReadRemoteDiscovery) {
  auto world = TestWorld::make();
  DiscoveryServer::Options sopts;
  sopts.request_interceptor =
      [](const DiscRequest& req) -> std::optional<DiscResponse> {
    if (req.op == DiscOp::query) sleep_for(ms(100));  // a slow catalogue
    return std::nullopt;
  };
  DiscoveryServer server(world.mem->bind(Addr::mem("disc", 1)).value(),
                         std::make_shared<DiscoveryState>(), sopts);

  RemoteDiscovery::Options ropts;
  ropts.rpc_timeout = seconds(1);
  ropts.retries = 2;
  RuntimeConfig cfg;
  cfg.host_id = "srv";
  cfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "srv");
  cfg.discovery = std::make_shared<RemoteDiscovery>(
      world.mem->bind(Addr::mem("srv", 0)).value(), server.addr(), ropts);
  cfg.io.reactor_workers = 1;
  auto srv_rt = Runtime::create(std::move(cfg)).value();
  ASSERT_TRUE(register_builtin_chunnels(*srv_rt).ok());
  auto listener =
      srv_rt->endpoint("srv", ChunnelDag::chain({ChunnelSpec("serialize")}))
          .value()
          .listen(Addr::mem("srv", 900))
          .value();

  // Each RPC attempt that queued behind a negotiation would cost the
  // whole 1 s rpc_timeout, and three attempts outlast the deadline.
  constexpr int kConns = 2;
  std::vector<std::shared_ptr<Runtime>> cli_rts;
  for (int i = 0; i < kConns; i++)
    cli_rts.push_back(world.runtime("cli" + std::to_string(i)));
  std::vector<Result<ConnPtr>> conns(kConns, err(Errc::internal, "unset"));
  std::vector<std::thread> dialers;
  for (int i = 0; i < kConns; i++) {
    dialers.emplace_back([&, i] {
      conns[i] = cli_rts[i]
                     ->endpoint("cli", ChunnelDag::empty())
                     .value()
                     .connect(listener->addr(), Deadline::after(seconds(3)));
    });
  }
  for (auto& d : dialers) d.join();
  for (auto& c : conns) {
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    c.value()->close();
  }
  EXPECT_GE(server.requests_served(), static_cast<uint64_t>(kConns));
  listener->close();
}

// --- anycast connections (§3.2) ---

TEST(AnycastTest, ConnectsToNearestInstanceViaVirtualAddress) {
  auto world = TestWorld::make();
  auto near_rt = world.runtime("near");
  auto far_rt = world.runtime("far");
  auto cli_rt = world.runtime("cli");
  world.sim->set_link("cli", "near", us(50));
  world.sim->set_link("cli", "far", us(500));

  auto near_listener = near_rt->endpoint("svc", ChunnelDag::empty())
                           .value()
                           .listen(Addr::sim("near", 8000))
                           .value();
  auto far_listener = far_rt->endpoint("svc", ChunnelDag::empty())
                          .value()
                          .listen(Addr::sim("far", 8000))
                          .value();

  Addr vip = Addr::sim("kv-anycast", 80);
  ASSERT_TRUE(world.sim->advertise(vip, near_listener->addr(), 1).ok());
  ASSERT_TRUE(world.sim->advertise(vip, far_listener->addr(), 100).ok());

  auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  auto conn = ep.connect(vip, Deadline::after(seconds(5)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();

  // The near instance accepted; data flows to it directly.
  auto srv_conn = near_listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn.value()->send(Msg::of("to-nearest")).ok());
  EXPECT_EQ(srv_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "to-nearest");
  EXPECT_EQ(far_listener->connections_accepted(), 0u);

  // Routing change: the near instance withdraws; the next connection
  // reaches the far one — same client code, same virtual address.
  world.sim->withdraw(vip, near_listener->addr());
  auto conn2 = ep.connect(vip, Deadline::after(seconds(5)));
  ASSERT_TRUE(conn2.ok()) << conn2.error().to_string();
  auto far_conn = far_listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn2.value()->send(Msg::of("rerouted")).ok());
  EXPECT_EQ(far_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "rerouted");
}

TEST(AnycastTest, EstablishedConnectionSurvivesRoutingChange) {
  // Because the data path pins to the concrete instance that accepted,
  // an anycast routing flap does not break established connections
  // (the instability that drives people to DNS, per §3.2).
  auto world = TestWorld::make();
  auto a_rt = world.runtime("ia");
  auto b_rt = world.runtime("ib");
  auto cli_rt = world.runtime("cli");

  auto la = a_rt->endpoint("svc", ChunnelDag::empty())
                .value()
                .listen(Addr::sim("ia", 8000))
                .value();
  auto lb = b_rt->endpoint("svc", ChunnelDag::empty())
                .value()
                .listen(Addr::sim("ib", 8000))
                .value();
  Addr vip = Addr::sim("svc-vip", 80);
  ASSERT_TRUE(world.sim->advertise(vip, la->addr(), 1).ok());
  ASSERT_TRUE(world.sim->advertise(vip, lb->addr(), 50).ok());

  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(vip, Deadline::after(seconds(5)))
                  .value();
  auto srv = la->accept(Deadline::after(seconds(5))).value();

  // Routing flips mid-connection.
  ASSERT_TRUE(world.sim->advertise(vip, lb->addr(), 0).ok());

  ASSERT_TRUE(conn->send(Msg::of("still-a")).ok());
  EXPECT_EQ(srv->recv(Deadline::after(seconds(5))).value().payload_str(),
            "still-a");
  EXPECT_EQ(lb->connections_accepted(), 0u);
}

}  // namespace
}  // namespace bertha
