// End-to-end tests of connection establishment: listen/connect,
// negotiation over the wire, data exchange, close propagation,
// rejection, handshake retries under loss, and multi-endpoint connect.
#include <gtest/gtest.h>

#include <thread>

#include "apps/ping.hpp"
#include "chunnels/reliable.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

TEST(EndpointTest, ConnectExchangeClose) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("host-s");
  auto cli_rt = world.runtime("host-c");

  auto srv_ep = srv_rt->endpoint("srv", wrap(ChunnelSpec("reliable"))).value();
  auto listener = srv_ep.listen(Addr::mem("host-s", 100));
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();

  auto cli_ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  auto conn_r = cli_ep.connect(listener.value()->addr(),
                               Deadline::after(seconds(5)));
  ASSERT_TRUE(conn_r.ok()) << conn_r.error().to_string();
  ConnPtr cli = std::move(conn_r).value();

  auto srv_conn_r = listener.value()->accept(Deadline::after(seconds(5)));
  ASSERT_TRUE(srv_conn_r.ok());
  ConnPtr srv = std::move(srv_conn_r).value();
  EXPECT_EQ(listener.value()->connections_accepted(), 1u);

  ASSERT_TRUE(cli->send(Msg::of("hello")).ok());
  auto got = srv->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got.value().payload_str(), "hello");

  ASSERT_TRUE(srv->send(Msg::of("world")).ok());
  auto back = cli->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().payload_str(), "world");

  cli->close();
  srv->close();
}

TEST(EndpointTest, EmptyClientDagAdoptsServerChain) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");

  // Server requires serialize |> reliable; client brings an empty DAG
  // (the Listing 5 pattern) but has the fallbacks registered.
  auto srv_ep = srv_rt->endpoint(
      "srv", wrap(ChunnelSpec("serialize"), ChunnelSpec("reliable")));
  ASSERT_TRUE(srv_ep.ok());
  auto listener = srv_ep.value().listen(Addr::mem("h1", 200)).value();

  auto cli_ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  auto conn = cli_ep.connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();

  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn.value()->send(Msg::of("typed")).ok());
  EXPECT_EQ(srv_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "typed");
}

TEST(EndpointTest, MismatchedDagRejected) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 201))
                      .value();
  auto cli_ep = cli_rt->endpoint("cli", wrap(ChunnelSpec("compress"))).value();
  auto conn = cli_ep.connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, Errc::connection_failed);
}

TEST(EndpointTest, MissingImplementationRejected) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1", /*builtins=*/false);
  auto cli_rt = world.runtime("h2", /*builtins=*/false);
  // Server asks for reliable but *neither* side registered any impl.
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 202))
                      .value();
  auto cli_ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  auto conn = cli_ep.connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, Errc::connection_failed);
  EXPECT_NE(conn.error().message.find("reliable"), std::string::npos);
}

TEST(EndpointTest, ConnectToNobodyTimesOut) {
  auto world = TestWorld::make();
  RuntimeConfig cfg;
  cfg.host_id = "h";
  cfg.transports = std::make_shared<DefaultTransportFactory>(world.mem,
                                                             world.sim, "h");
  cfg.discovery = world.discovery;
  cfg.handshake_timeout = ms(50);
  cfg.handshake_retries = 1;
  auto rt = Runtime::create(std::move(cfg)).value();
  auto ep = rt->endpoint("cli", ChunnelDag::empty()).value();
  auto conn = ep.connect(Addr::mem("ghost", 1), Deadline::after(seconds(5)));
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, Errc::connection_failed);
}

TEST(EndpointTest, HandshakeSurvivesPacketLoss) {
  // 30% loss: hello/accept retransmission must still establish, and the
  // reliable chunnel must carry data across.
  auto world = TestWorld::make(/*seed=*/1234);
  MemNetwork::Config lossy;
  lossy.drop_rate = 0.3;
  lossy.seed = 99;
  world.mem = MemNetwork::create(lossy);

  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  ChunnelArgs fast_rto;
  fast_rto.set("rto_us", "20000");
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("reliable", fast_rto)))
                      .value()
                      .listen(Addr::mem("h1", 203))
                      .value();

  auto cli_ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  auto conn = cli_ep.connect(listener->addr(), Deadline::after(seconds(20)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  auto srv_conn = listener->accept(Deadline::after(seconds(20))).value();

  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(conn.value()->send(Msg::of("m" + std::to_string(i))).ok());
    auto got = srv_conn->recv(Deadline::after(seconds(20)));
    ASSERT_TRUE(got.ok()) << i << ": " << got.error().to_string();
    EXPECT_EQ(got.value().payload_str(), "m" + std::to_string(i));
  }
}

TEST(EndpointTest, ServerCloseVisibleToClient) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  // No chunnels: the raw establishment path.
  auto listener = srv_rt->endpoint("srv", ChunnelDag::empty())
                      .value()
                      .listen(Addr::mem("h1", 204))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();
  srv_conn->close();
  auto r = conn->recv(Deadline::after(seconds(5)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unavailable);
}

TEST(EndpointTest, ManySequentialConnections) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  auto listener = srv_rt->endpoint("srv", ChunnelDag::empty())
                      .value()
                      .listen(Addr::mem("h1", 205))
                      .value();
  std::thread acceptor([&] {
    for (int i = 0; i < 20; i++) {
      auto c = listener->accept(Deadline::after(seconds(10)));
      if (!c.ok()) return;
      // Echo one message.
      auto m = c.value()->recv(Deadline::after(seconds(10)));
      if (m.ok()) (void)c.value()->send(std::move(m).value());
    }
  });
  auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  for (int i = 0; i < 20; i++) {
    auto conn = ep.connect(listener->addr(), Deadline::after(seconds(10)));
    ASSERT_TRUE(conn.ok()) << i << ": " << conn.error().to_string();
    ASSERT_TRUE(conn.value()->send(Msg::of("x")).ok());
    ASSERT_TRUE(conn.value()->recv(Deadline::after(seconds(10))).ok());
    conn.value()->close();
  }
  acceptor.join();
  EXPECT_EQ(listener->connections_accepted(), 20u);
}

// A closed connection's dead-token sweep entry leaves the client's wheel
// with the connection: churn must not pile up entries.
TEST(EndpointTest, ClosedConnectionsLeaveNoWheelEntries) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  auto listener = srv_rt->endpoint("srv", ChunnelDag::empty())
                      .value()
                      .listen(Addr::mem("h1", 206))
                      .value();
  auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  auto cycle = [&] {
    auto conn = ep.connect(listener->addr(), Deadline::after(seconds(10)));
    ASSERT_TRUE(conn.ok()) << conn.error().to_string();
    ASSERT_TRUE(listener->accept(Deadline::after(seconds(10))).ok());
    conn.value()->close();
  };
  cycle();
  auto wheel = cli_rt->timer_wheel();
  uint64_t baseline = wheel->stats().armed;
  constexpr int kCycles = 20;
  for (int i = 0; i < kCycles; i++) cycle();
  Deadline dl = Deadline::after(seconds(2));
  while (wheel->stats().armed > baseline && !dl.expired()) sleep_for(ms(10));
  EXPECT_LE(wheel->stats().armed, baseline)
      << kCycles << " closed connections left wheel entries behind";
}

TEST(EndpointTest, MultiEndpointConnectFansOut) {
  auto world = TestWorld::make();
  auto cli_rt = world.runtime("hc");
  auto r1 = world.runtime("h1");
  auto r2 = world.runtime("h2");

  auto l1 = r1->endpoint("s1", ChunnelDag::empty())
                .value()
                .listen(Addr::mem("h1", 206))
                .value();
  auto l2 = r2->endpoint("s2", ChunnelDag::empty())
                .value()
                .listen(Addr::mem("h2", 206))
                .value();

  auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  auto conn = ep.connect({l1->addr(), l2->addr()}, Deadline::after(seconds(5)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();

  auto c1 = l1->accept(Deadline::after(seconds(5))).value();
  auto c2 = l2->accept(Deadline::after(seconds(5))).value();

  // Fan-out: both servers see the message.
  ASSERT_TRUE(conn.value()->send(Msg::of("to-all")).ok());
  EXPECT_EQ(c1->recv(Deadline::after(seconds(5))).value().payload_str(),
            "to-all");
  EXPECT_EQ(c2->recv(Deadline::after(seconds(5))).value().payload_str(),
            "to-all");

  // Targeted send via dst.
  Msg targeted = Msg::of("only-one");
  targeted.dst = l1->addr();
  ASSERT_TRUE(conn.value()->send(std::move(targeted)).ok());
  EXPECT_TRUE(c1->recv(Deadline::after(seconds(5))).ok());
  EXPECT_FALSE(c2->recv(Deadline::after(ms(100))).ok());

  // Replies from either reach the client.
  ASSERT_TRUE(c2->send(Msg::of("from-2")).ok());
  EXPECT_EQ(conn.value()->recv(Deadline::after(seconds(5))).value().payload_str(),
            "from-2");
}

TEST(EndpointTest, WorksOverRealUdpAndUnixSockets) {
  // Same host id: exercises the genuine OS transports end to end.
  auto discovery = std::make_shared<DiscoveryState>();
  RuntimeConfig cfg;
  cfg.host_id = "realhost";
  cfg.transports = std::make_shared<DefaultTransportFactory>();
  cfg.discovery = discovery;
  auto rt = Runtime::create(cfg).value();
  ASSERT_TRUE(register_transport_chunnels(*rt).ok());

  for (const Addr& listen_addr :
       {Addr::udp("127.0.0.1", 0), Addr::uds("ep-test-" + make_unique_id())}) {
    auto listener = rt->endpoint("srv", wrap(ChunnelSpec("reliable")))
                        .value()
                        .listen(listen_addr)
                        .value();
    auto conn = rt->endpoint("cli", ChunnelDag::empty())
                    .value()
                    .connect(listener->addr(), Deadline::after(seconds(5)));
    ASSERT_TRUE(conn.ok()) << listen_addr.to_string() << ": "
                           << conn.error().to_string();
    auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();
    ASSERT_TRUE(conn.value()->send(Msg::of("real")).ok());
    EXPECT_EQ(srv_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
              "real");
  }
}

TEST(EndpointTest, PingServerRoundTrips) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  auto server = PingServer::start(srv_rt, wrap(ChunnelSpec("reliable")),
                                  Addr::mem("h1", 207));
  ASSERT_TRUE(server.ok());
  auto ep = cli_rt->endpoint("pinger", ChunnelDag::empty()).value();
  auto run = ping_over_new_connection(ep, server.value()->addr(), 64, 3,
                                      Deadline::after(seconds(10)));
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().rtts.size(), 3u);
  EXPECT_GT(run.value().connect_time, Duration::zero());
  EXPECT_EQ(server.value()->echoed(), 3u);
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {

// §6 end to end: a runtime configured with a DAG optimizer rewrites
// encrypt |> frame |> tcpish into frame |> tls during negotiation, both
// sides build the rewritten stack, and data still round-trips.
TEST(EndpointTest, OptimizerRewritesChainEndToEnd) {
  auto world = TestWorld::make();

  // A probe "tls" implementation that records its use.
  struct ProbeTls final : ChunnelImpl {
    ProbeTls() {
      info_.type = "tls";
      info_.name = "tls/probe";
      info_.scope = Scope::application;
      info_.endpoints = EndpointConstraint::both;
      info_.priority = 50;
      info_.props["offloadable"] = "true";
      info_.props["commutes_with"] = "frame";
    }
    const ImplInfo& info() const override { return info_; }
    Result<ConnPtr> wrap(ConnPtr inner, WrapContext&) override {
      used->fetch_add(1);
      return inner;
    }
    ImplInfo info_;
    std::shared_ptr<std::atomic<int>> used =
        std::make_shared<std::atomic<int>>(0);
  };

  auto optimizer = std::make_shared<DagOptimizer>();
  optimizer->add_merge_rule({"encrypt", "tcpish", "tls", true});

  auto probe_srv = std::make_shared<ProbeTls>();
  auto probe_cli = std::make_shared<ProbeTls>();

  auto make_rt = [&](const std::string& host,
                     std::shared_ptr<ProbeTls> probe) {
    RuntimeConfig cfg;
    cfg.host_id = host;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(world.mem, world.sim, host);
    cfg.discovery = world.discovery;
    cfg.optimizer = optimizer;
    auto rt = Runtime::create(std::move(cfg)).value();
    EXPECT_TRUE(register_builtin_chunnels(*rt).ok());
    EXPECT_TRUE(rt->register_chunnel(probe).ok());
    return rt;
  };
  auto srv_rt = make_rt("h1", probe_srv);
  auto cli_rt = make_rt("h2", probe_cli);

  auto listener = srv_rt->endpoint("opt-srv",
                                   wrap(ChunnelSpec("encrypt"),
                                        ChunnelSpec("frame"),
                                        ChunnelSpec("tcpish")))
                      .value()
                      .listen(Addr::mem("h1", 600))
                      .value();
  auto conn = cli_rt->endpoint("opt-cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();

  // The merge happened and both sides instantiated the merged stage.
  EXPECT_EQ(probe_srv->used->load(), 1);
  EXPECT_EQ(probe_cli->used->load(), 1);

  ASSERT_TRUE(conn.value()->send(Msg::of("rewritten")).ok());
  EXPECT_EQ(srv_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "rewritten");
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {

// §6 "Deployment Concerns": chain attestation between runtimes that do
// and do not share the deployment secret.
struct AttestationFixture : ::testing::Test {
  std::shared_ptr<Runtime> make_rt(TestWorld& world, const std::string& host,
                                   const std::string& secret) {
    RuntimeConfig cfg;
    cfg.host_id = host;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(world.mem, world.sim, host);
    cfg.discovery = world.discovery;
    cfg.attestation_secret = secret;
    auto rt = Runtime::create(std::move(cfg)).value();
    EXPECT_TRUE(register_builtin_chunnels(*rt).ok());
    return rt;
  }
};

TEST_F(AttestationFixture, SharedSecretConnects) {
  auto world = TestWorld::make();
  auto srv = make_rt(world, "h1", "deployment-key");
  auto cli = make_rt(world, "h2", "deployment-key");
  auto listener = srv->endpoint("att", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 800))
                      .value();
  auto conn = cli->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn.value()->send(Msg::of("attested")).ok());
  EXPECT_EQ(srv_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "attested");
}

TEST_F(AttestationFixture, SecretMismatchRefused) {
  auto world = TestWorld::make();
  auto srv = make_rt(world, "h1", "key-A");
  auto cli = make_rt(world, "h2", "key-B");
  auto listener = srv->endpoint("att", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 801))
                      .value();
  auto conn = cli->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_FALSE(conn.ok());
  EXPECT_NE(conn.error().message.find("attestation"), std::string::npos);
}

TEST_F(AttestationFixture, UnattestedServerRefusedByStrictClient) {
  auto world = TestWorld::make();
  auto srv = make_rt(world, "h1", "");  // server doesn't attest
  auto cli = make_rt(world, "h2", "required-key");
  auto listener = srv->endpoint("att", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 802))
                      .value();
  auto conn = cli->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_FALSE(conn.ok());
}

TEST_F(AttestationFixture, LaxClientAcceptsAttestedServer) {
  auto world = TestWorld::make();
  auto srv = make_rt(world, "h1", "key");
  auto cli = make_rt(world, "h2", "");  // client doesn't verify
  auto listener = srv->endpoint("att", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 803))
                      .value();
  auto conn = cli->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)));
  EXPECT_TRUE(conn.ok());
}

TEST(AttestChainTest, DigestProperties) {
  NegotiatedNode n;
  n.type = "reliable";
  n.impl_name = "reliable/arq";
  std::vector<NegotiatedNode> chain{n};

  uint64_t d = attest_chain(chain, "s");
  EXPECT_NE(d, 0u);                               // 0 is reserved
  EXPECT_EQ(d, attest_chain(chain, "s"));         // deterministic
  EXPECT_NE(d, attest_chain(chain, "other"));     // keyed
  auto modified = chain;
  modified[0].impl_name = "reliable/nop";
  EXPECT_NE(d, attest_chain(modified, "s"));      // content-bound
  EXPECT_NE(attest_chain({}, "s"), 0u);
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {

// The negotiated chain order is the wrap order: chain[0] outermost.
TEST(EndpointTest, StackBuiltInChainOrder) {
  auto world = TestWorld::make();

  struct OrderProbe final : ChunnelImpl {
    OrderProbe(std::string type, std::shared_ptr<std::vector<std::string>> log)
        : log_(std::move(log)) {
      info_.type = type;
      info_.name = type + "/probe";
      info_.endpoints = EndpointConstraint::both;
    }
    const ImplInfo& info() const override { return info_; }
    Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override {
      if (ctx.role == Role::server) log_->push_back(info_.type);
      return inner;
    }
    ImplInfo info_;
    std::shared_ptr<std::vector<std::string>> log_;
  };

  auto log = std::make_shared<std::vector<std::string>>();
  auto srv_rt = world.runtime("h1", /*builtins=*/false);
  auto cli_rt = world.runtime("h2", /*builtins=*/false);
  for (auto rt : {srv_rt, cli_rt})
    for (const char* t : {"alpha", "beta", "gamma"})
      ASSERT_TRUE(rt->register_chunnel(std::make_shared<OrderProbe>(t, log))
                      .ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("alpha"),
                                               ChunnelSpec("beta"),
                                               ChunnelSpec("gamma")))
                      .value()
                      .listen(Addr::mem("h1", 950))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  (void)listener->accept(Deadline::after(seconds(5))).value();

  // Wrapped innermost-first: gamma, beta, alpha.
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ((*log)[0], "gamma");
  EXPECT_EQ((*log)[1], "beta");
  EXPECT_EQ((*log)[2], "alpha");
}

// Many clients connect concurrently; every connection works.
TEST(EndpointTest, ConcurrentConnects) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 951))
                      .value();
  std::atomic<int> echoed{0};
  std::thread acceptor([&] {
    std::vector<std::thread> workers;
    for (int i = 0; i < 8; i++) {
      auto c = listener->accept(Deadline::after(seconds(20)));
      if (!c.ok()) break;
      workers.emplace_back([conn = std::move(c).value(), &echoed] {
        auto m = conn->recv(Deadline::after(seconds(20)));
        if (m.ok() && conn->send(std::move(m).value()).ok())
          echoed.fetch_add(1);
      });
    }
    for (auto& w : workers) w.join();
  });

  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 8; i++) {
    clients.emplace_back([&, i] {
      auto rt = world.runtime("client-" + std::to_string(i));
      auto conn = rt->endpoint("cli", ChunnelDag::empty())
                      .value()
                      .connect(listener->addr(), Deadline::after(seconds(20)));
      if (!conn.ok()) return;
      if (!conn.value()->send(Msg::of("c" + std::to_string(i))).ok()) return;
      auto back = conn.value()->recv(Deadline::after(seconds(20)));
      if (back.ok() && back.value().payload_str() == "c" + std::to_string(i))
        ok_count.fetch_add(1);
      conn.value()->close();
    });
  }
  for (auto& c : clients) c.join();
  acceptor.join();
  EXPECT_EQ(ok_count.load(), 8);
  EXPECT_EQ(echoed.load(), 8);
  EXPECT_EQ(listener->connections_accepted(), 8u);
}

// One runtime can run several listeners with different DAGs at once.
TEST(EndpointTest, MultipleListenersPerRuntime) {
  auto world = TestWorld::make();
  auto rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  auto l1 = rt->endpoint("svc-a", wrap(ChunnelSpec("reliable")))
                .value()
                .listen(Addr::mem("h1", 952))
                .value();
  auto l2 = rt->endpoint("svc-b", wrap(ChunnelSpec("compress")))
                .value()
                .listen(Addr::mem("h1", 953))
                .value();
  auto c1 = cli_rt->endpoint("c", ChunnelDag::empty())
                .value()
                .connect(l1->addr(), Deadline::after(seconds(5)))
                .value();
  auto c2 = cli_rt->endpoint("c", ChunnelDag::empty())
                .value()
                .connect(l2->addr(), Deadline::after(seconds(5)))
                .value();
  auto s1 = l1->accept(Deadline::after(seconds(5))).value();
  auto s2 = l2->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(c1->send(Msg::of("to-a")).ok());
  ASSERT_TRUE(c2->send(Msg::of("to-b")).ok());
  EXPECT_EQ(s1->recv(Deadline::after(seconds(5))).value().payload_str(),
            "to-a");
  EXPECT_EQ(s2->recv(Deadline::after(seconds(5))).value().payload_str(),
            "to-b");
}

}  // namespace
}  // namespace bertha
