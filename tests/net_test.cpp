// Tests for the network substrate: addresses, UDP/unix/pipe transports,
// the in-memory network, and SimNet (links, multicast groups, anycast).
#include <gtest/gtest.h>

#include <thread>

#include "net/addr.hpp"
#include "net/factory.hpp"
#include "net/memchan.hpp"
#include "net/pipe.hpp"
#include "net/simnet.hpp"
#include "net/udp.hpp"
#include "net/uds.hpp"

namespace bertha {
namespace {

// --- Addr ---

struct AddrCase {
  std::string uri;
  AddrKind kind;
  std::string host;
  uint16_t port;
};

// Names each case by its URI; without this gtest names it by a byte dump
// that holds heap pointers, so the test name would change every run.
void PrintTo(const AddrCase& c, std::ostream* os) { *os << c.uri; }

class AddrParseTest : public ::testing::TestWithParam<AddrCase> {};

TEST_P(AddrParseTest, ParsesAndFormats) {
  const auto& c = GetParam();
  auto r = Addr::parse(c.uri);
  ASSERT_TRUE(r.ok()) << c.uri << ": " << r.error().to_string();
  EXPECT_EQ(r.value().kind, c.kind);
  EXPECT_EQ(r.value().host, c.host);
  EXPECT_EQ(r.value().port, c.port);
  EXPECT_EQ(r.value().to_string(), c.uri);  // canonical round trip
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AddrParseTest,
    ::testing::Values(
        AddrCase{"udp://127.0.0.1:5000", AddrKind::udp, "127.0.0.1", 5000},
        AddrCase{"udp://0.0.0.0:0", AddrKind::udp, "0.0.0.0", 0},
        AddrCase{"uds://my-sock", AddrKind::uds, "my-sock", 0},
        AddrCase{"mem://chan:7", AddrKind::mem, "chan", 7},
        AddrCase{"sim://node-a:9999", AddrKind::sim, "node-a", 9999}));

TEST(AddrTest, RejectsMalformed) {
  for (const char* bad :
       {"", "127.0.0.1:80", "http://x:1", "udp://:80", "udp://h",
        "udp://h:notaport", "udp://h:99999999", "uds://"})
    EXPECT_FALSE(Addr::parse(bad).ok()) << bad;
}

TEST(AddrTest, EqualityAndHash) {
  Addr a = Addr::udp("1.2.3.4", 80);
  Addr b = Addr::udp("1.2.3.4", 80);
  Addr c = Addr::udp("1.2.3.4", 81);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(AddrHash{}(a), AddrHash{}(b));
}

// --- transports, exercised uniformly ---

void expect_echo_pair(Transport& a, Transport& b) {
  Bytes payload = to_bytes("ping");
  ASSERT_TRUE(a.send_to(b.local_addr(), payload).ok());
  auto pkt = b.recv(Deadline::after(seconds(2)));
  ASSERT_TRUE(pkt.ok()) << pkt.error().to_string();
  EXPECT_EQ(to_string(pkt.value().payload), "ping");
  // reply via the observed source
  ASSERT_TRUE(b.send_to(pkt.value().src, to_bytes("pong")).ok());
  auto back = a.recv(Deadline::after(seconds(2)));
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(to_string(back.value().payload), "pong");
}

TEST(UdpTransportTest, EchoOnLoopback) {
  auto a = UdpTransport::bind(Addr::udp("127.0.0.1", 0));
  auto b = UdpTransport::bind(Addr::udp("127.0.0.1", 0));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value()->local_addr().port, 0);
  expect_echo_pair(*a.value(), *b.value());
}

TEST(UdpTransportTest, RecvTimesOut) {
  auto t = UdpTransport::bind(Addr::udp("127.0.0.1", 0));
  ASSERT_TRUE(t.ok());
  auto r = t.value()->recv(Deadline::after(ms(20)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timed_out);
}

// An expired deadline is a non-blocking receive: it drains what is
// queued and reports timed_out on an empty socket, on both paths.
TEST(UdpTransportTest, ExpiredDeadlineReceivesWithoutBlocking) {
  auto a = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  auto b = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  Deadline expired = Deadline::after(Duration::zero());
  auto r = b->recv(expired);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timed_out);

  ASSERT_TRUE(a->send_to(b->local_addr(), to_bytes("one")).ok());
  Packet got;
  Deadline dl = Deadline::after(seconds(2));
  for (;;) {  // loopback delivery is quick but not instantaneous
    auto p = b->recv(expired);
    if (p.ok()) {
      got = std::move(p).value();
      break;
    }
    ASSERT_EQ(p.error().code, Errc::timed_out);
    ASSERT_FALSE(dl.expired());
    sleep_for(ms(1));
  }
  EXPECT_EQ(to_string(got.payload), "one");
  EXPECT_EQ(got.src, a->local_addr());

  auto* batch = dynamic_cast<BatchTransport*>(b.get());
  ASSERT_NE(batch, nullptr);
  std::vector<Datagram> out(4);
  auto n = batch->recv_batch(std::span<Datagram>(out), expired);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, Errc::timed_out);
}

// Hosts are parsed as inet_pton(AF_INET) would: dotted decimal quads
// only. Received source addresses format back to the same text.
TEST(UdpTransportTest, RejectsMalformedIpv4Hosts) {
  auto t = UdpTransport::bind(Addr::udp("127.0.0.1", 0)).value();
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.-4",
                          "01.2.3.4", "1..2.3", "1.2.3.4 ", "a.b.c.d",
                          "1.2.3.1000", "localhost"}) {
    auto r = t->send_to(Addr::udp(bad, 9), to_bytes("x"));
    ASSERT_FALSE(r.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(r.error().code, Errc::invalid_argument) << bad;
  }
  for (const char* good : {"127.0.0.1", "127.10.200.3", "127.255.255.254"})
    EXPECT_TRUE(t->send_to(Addr::udp(good, 9), to_bytes("x")).ok()) << good;
  EXPECT_EQ(t->local_addr().host, "127.0.0.1");
}

TEST(UdpTransportTest, CloseWakesBlockedRecv) {
  auto t = UdpTransport::bind(Addr::udp("127.0.0.1", 0));
  ASSERT_TRUE(t.ok());
  Transport* raw = t.value().get();
  std::thread closer([&] {
    sleep_for(ms(30));
    raw->close();
  });
  auto r = raw->recv();
  closer.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::cancelled);
}

TEST(UdpTransportTest, RejectsWrongFamily) {
  auto t = UdpTransport::bind(Addr::udp("127.0.0.1", 0));
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(t.value()->send_to(Addr::uds("x"), to_bytes("hi")).ok());
  EXPECT_FALSE(UdpTransport::bind(Addr::uds("x")).ok());
}

TEST(UdsTransportTest, EchoNamedToAutobind) {
  auto srv = UdsTransport::bind(Addr::uds("net-test-srv"));
  ASSERT_TRUE(srv.ok()) << srv.error().to_string();
  auto cli = UdsTransport::bind(Addr::uds(""));  // autobind
  ASSERT_TRUE(cli.ok());
  EXPECT_FALSE(cli.value()->local_addr().host.empty());
  expect_echo_pair(*cli.value(), *srv.value());
}

TEST(UdsTransportTest, AutobindAddrsRoundTripThroughUri) {
  auto cli = UdsTransport::bind(Addr::uds(""));
  ASSERT_TRUE(cli.ok());
  // The escaped autobind address survives uri round trip (the form
  // advertisements carry it in).
  std::string uri = cli.value()->local_addr().to_string();
  auto parsed = Addr::parse(uri);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), cli.value()->local_addr());
}

TEST(UdsTransportTest, SendToVanishedPeerIsDrop) {
  auto a = UdsTransport::bind(Addr::uds(""));
  ASSERT_TRUE(a.ok());
  // Nothing bound at this name: datagram vanishes like packet loss.
  EXPECT_TRUE(a.value()->send_to(Addr::uds("nobody-home"), to_bytes("x")).ok());
}

TEST(PipeTransportTest, BidirectionalEcho) {
  auto pair = make_pipe_pair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(pair.value().a->send_to(Addr(), to_bytes("over")).ok());
  auto got = pair.value().b->recv(Deadline::after(seconds(1)));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(got.value().payload), "over");
}

TEST(PipeTransportTest, PeerCloseIsVisible) {
  auto pair = make_pipe_pair();
  ASSERT_TRUE(pair.ok());
  pair.value().a->close();
  auto got = pair.value().b->recv(Deadline::after(seconds(1)));
  EXPECT_FALSE(got.ok());
}

// --- MemNetwork ---

TEST(MemNetworkTest, BindConflictAndEphemeral) {
  auto net = MemNetwork::create();
  auto a = net->bind(Addr::mem("h", 5));
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(net->bind(Addr::mem("h", 5)).ok());  // taken
  auto e1 = net->bind(Addr::mem("h", 0));
  auto e2 = net->bind(Addr::mem("h", 0));
  ASSERT_TRUE(e1.ok() && e2.ok());
  EXPECT_NE(e1.value()->local_addr().port, e2.value()->local_addr().port);
}

TEST(MemNetworkTest, DeliveryAndCounters) {
  auto net = MemNetwork::create();
  auto a = net->bind(Addr::mem("h", 1)).value();
  auto b = net->bind(Addr::mem("h", 2)).value();
  expect_echo_pair(*a, *b);
  EXPECT_EQ(net->delivered(), 2u);
  EXPECT_EQ(net->dropped(), 0u);
}

TEST(MemNetworkTest, UnboundDestinationDrops) {
  auto net = MemNetwork::create();
  auto a = net->bind(Addr::mem("h", 1)).value();
  EXPECT_TRUE(a->send_to(Addr::mem("h", 99), to_bytes("x")).ok());
  EXPECT_EQ(net->dropped(), 1u);
}

TEST(MemNetworkTest, ConfiguredLossDropsDeterministically) {
  MemNetwork::Config cfg;
  cfg.drop_rate = 0.5;
  cfg.seed = 7;
  auto net = MemNetwork::create(cfg);
  auto a = net->bind(Addr::mem("h", 1)).value();
  auto b = net->bind(Addr::mem("h", 2)).value();
  for (int i = 0; i < 200; i++)
    ASSERT_TRUE(a->send_to(b->local_addr(), to_bytes("x")).ok());
  uint64_t delivered = net->delivered();
  EXPECT_GT(delivered, 60u);
  EXPECT_LT(delivered, 140u);
  EXPECT_EQ(delivered + net->dropped(), 200u);
}

TEST(MemNetworkTest, RebindAfterClose) {
  auto net = MemNetwork::create();
  {
    auto a = net->bind(Addr::mem("h", 3)).value();
    a->close();
  }
  EXPECT_TRUE(net->bind(Addr::mem("h", 3)).ok());
}

// --- SimNet ---

TEST(SimNetTest, DeliversWithLatency) {
  SimNet::Config cfg;
  cfg.default_latency = ms(5);
  auto net = SimNet::create(cfg);
  auto a = net->attach("a", 1).value();
  auto b = net->attach("b", 1).value();
  Stopwatch sw;
  ASSERT_TRUE(a->send_to(b->local_addr(), to_bytes("hi")).ok());
  auto got = b->recv(Deadline::after(seconds(2)));
  ASSERT_TRUE(got.ok());
  EXPECT_GE(sw.elapsed(), ms(4));
  EXPECT_EQ(got.value().src, a->local_addr());
}

TEST(SimNetTest, PerLinkLatencyOverridesDefault) {
  SimNet::Config cfg;
  cfg.default_latency = ms(50);
  auto net = SimNet::create(cfg);
  net->set_link("a", "b", us(100));
  auto a = net->attach("a", 1).value();
  auto b = net->attach("b", 1).value();
  Stopwatch sw;
  ASSERT_TRUE(a->send_to(b->local_addr(), to_bytes("hi")).ok());
  ASSERT_TRUE(b->recv(Deadline::after(seconds(2))).ok());
  EXPECT_LT(sw.elapsed(), ms(30));
}

TEST(SimNetTest, LossyLinkDrops) {
  SimNet::Config cfg;
  cfg.seed = 3;
  auto net = SimNet::create(cfg);
  net->set_link("a", "b", us(10), 1.0);  // 100% loss
  auto a = net->attach("a", 1).value();
  auto b = net->attach("b", 1).value();
  ASSERT_TRUE(a->send_to(b->local_addr(), to_bytes("x")).ok());
  EXPECT_FALSE(b->recv(Deadline::after(ms(50))).ok());
  EXPECT_EQ(net->dropped(), 1u);
}

TEST(SimNetTest, GroupFanout) {
  auto net = SimNet::create();
  auto m1 = net->attach("r1", 7).value();
  auto m2 = net->attach("r2", 7).value();
  ASSERT_TRUE(net->create_group("grp", 7, {m1->local_addr(), m2->local_addr()},
                                /*hw_sequencer=*/false)
                  .ok());
  auto cli = net->attach("c", 1).value();
  ASSERT_TRUE(cli->send_to(Addr::sim("grp", 7), to_bytes("op")).ok());
  for (auto* m : {m1.get(), m2.get()}) {
    auto got = m->recv(Deadline::after(seconds(2)));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(to_string(got.value().payload), "op");
  }
}

TEST(SimNetTest, HwSequencerStampsMonotonically) {
  auto net = SimNet::create();
  auto m = net->attach("r1", 7).value();
  ASSERT_TRUE(
      net->create_group("grp", 7, {m->local_addr()}, /*hw_sequencer=*/true)
          .ok());
  auto cli = net->attach("c", 1).value();
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(cli->send_to(Addr::sim("grp", 7), to_bytes("op")).ok());
  for (uint64_t expect_seq = 0; expect_seq < 5; expect_seq++) {
    auto got = m->recv(Deadline::after(seconds(2)));
    ASSERT_TRUE(got.ok());
    ASSERT_GE(got.value().payload.size(), 8u);
    EXPECT_EQ(get_u64_le(got.value().payload, 0), expect_seq);
  }
}

TEST(SimNetTest, DuplicateGroupRejected) {
  auto net = SimNet::create();
  auto m = net->attach("r", 7).value();
  ASSERT_TRUE(net->create_group("g", 7, {m->local_addr()}, true).ok());
  EXPECT_FALSE(net->create_group("g", 7, {m->local_addr()}, true).ok());
}

TEST(SimNetTest, AnycastRoutesToLowestMetric) {
  auto net = SimNet::create();
  auto far = net->attach("far", 1).value();
  auto near = net->attach("near", 1).value();
  Addr svc = Addr::sim("svc", 80);
  ASSERT_TRUE(net->advertise(svc, far->local_addr(), 100).ok());
  ASSERT_TRUE(net->advertise(svc, near->local_addr(), 1).ok());
  EXPECT_EQ(net->resolve_anycast(svc).value(), near->local_addr());

  auto cli = net->attach("c", 1).value();
  ASSERT_TRUE(cli->send_to(svc, to_bytes("req")).ok());
  auto got = near->recv(Deadline::after(seconds(2)));
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(far->recv(Deadline::after(ms(50))).ok());

  // Withdraw the near one; traffic shifts.
  net->withdraw(svc, near->local_addr());
  ASSERT_TRUE(cli->send_to(svc, to_bytes("req2")).ok());
  EXPECT_TRUE(far->recv(Deadline::after(seconds(2))).ok());
}

TEST(SimNetTest, ShutdownWakesReceivers) {
  auto net = SimNet::create();
  auto a = net->attach("a", 1).value();
  std::thread stopper([&] {
    sleep_for(ms(20));
    net->shutdown();
  });
  auto r = a->recv(Deadline::after(seconds(5)));
  stopper.join();
  EXPECT_FALSE(r.ok());
}

// --- DefaultTransportFactory ---

TEST(FactoryTest, DispatchesByFamily) {
  auto mem = MemNetwork::create();
  auto sim = SimNet::create();
  DefaultTransportFactory f(mem, sim, "node-x");
  EXPECT_TRUE(f.bind(Addr::udp("127.0.0.1", 0)).ok());
  EXPECT_TRUE(f.bind(Addr::uds("")).ok());
  EXPECT_TRUE(f.bind(Addr::mem("m", 0)).ok());
  auto s = f.bind(Addr::sim("node-x", 0));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->local_addr().host, "node-x");
}

TEST(FactoryTest, UnconfiguredNetworksFail) {
  DefaultTransportFactory f;
  EXPECT_FALSE(f.bind(Addr::mem("m", 0)).ok());
  EXPECT_FALSE(f.bind(Addr::sim("n", 0)).ok());
  EXPECT_FALSE(f.bind(Addr()).ok());
}

}  // namespace
}  // namespace bertha
