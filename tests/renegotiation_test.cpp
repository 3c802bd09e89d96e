// Live renegotiation: transitioning established connections between
// implementations of the same chunnel type (core/renegotiation.hpp).
//
// The deterministic tests run over the in-memory network; the
// real-socket test at the bottom exercises the full Fig-4 story (UDP ->
// unix-socket fast path while the connection stays open).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "chunnels/common.hpp"
#include "chunnels/localfastpath.hpp"
#include "chunnels/telemetry.hpp"
#include "core/renegotiation.hpp"
#include "core/wire.hpp"
#include "net/fault.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

// --- message serde ---

TEST(TransitionSerdeTest, MessagesRoundTrip) {
  TransitionMsg m;
  m.epoch = 3;
  m.new_token = 0xdeadbeefULL;
  m.reason = TransitionReason::revocation;
  m.mandatory = true;
  NegotiatedNode n;
  n.type = "offload";
  n.impl_name = "offload/hw";
  n.args.set("queue", "7");
  m.chain = {n};
  m.chain_digest = 42;

  auto m2 = decode_transition(encode_transition(m));
  ASSERT_TRUE(m2.ok()) << m2.error().to_string();
  EXPECT_EQ(m2.value().epoch, 3u);
  EXPECT_EQ(m2.value().new_token, 0xdeadbeefULL);
  EXPECT_EQ(m2.value().reason, TransitionReason::revocation);
  EXPECT_TRUE(m2.value().mandatory);
  ASSERT_EQ(m2.value().chain.size(), 1u);
  EXPECT_EQ(m2.value().chain[0], n);
  EXPECT_EQ(m2.value().chain_digest, 42u);

  TransitionAckMsg a;
  a.epoch = 3;
  a.accepted = false;
  a.errc = static_cast<uint8_t>(Errc::incompatible);
  a.reason = "multi-peer";
  auto a2 = decode_transition_ack(encode_transition_ack(a));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2.value().epoch, 3u);
  EXPECT_FALSE(a2.value().accepted);
  EXPECT_EQ(a2.value().reason, "multi-peer");

  EXPECT_FALSE(decode_transition(BytesView()).ok());
  EXPECT_FALSE(decode_transition_ack(BytesView()).ok());
}

// --- shared fixtures ---

// A chunnel impl defined entirely by its metadata (the transition tests
// care about *which* impl is bound, not what it does to messages).
class InfoChunnel final : public ChunnelImpl {
 public:
  explicit InfoChunnel(ImplInfo info) : info_(std::move(info)) {}
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext&) override { return inner; }

 private:
  ImplInfo info_;
};

ImplInfo offload_info(const std::string& name, int32_t priority,
                      std::vector<ResourceReq> resources = {}) {
  ImplInfo i;
  i.type = "offload";
  i.name = name;
  i.scope = Scope::host;
  i.endpoints = EndpointConstraint::server;
  i.priority = priority;
  i.resources = std::move(resources);
  return i;
}

// A DiscoveryState that reports every release() to the test, so the
// drain-before-release invariant can be checked at the exact moment a
// slot frees.
class ReleaseCheckingDiscovery : public DiscoveryState {
 public:
  Result<void> release(uint64_t alloc_id) override {
    if (auto hook = on_release.load()) (*hook)(alloc_id);
    return DiscoveryState::release(alloc_id);
  }
  std::atomic<std::function<void(uint64_t)>*> on_release{nullptr};
};

TransitionTuning fast_tuning() {
  TransitionTuning t;
  t.offer_retry = ms(25);
  t.ack_timeout = ms(1000);
  t.drain_timeout = ms(300);
  t.sweep_period = ms(10);
  return t;
}

std::shared_ptr<Runtime> mem_runtime(TestWorld& world,
                                     const std::string& host_id,
                                     std::shared_ptr<DiscoveryState> disc,
                                     bool builtins) {
  RuntimeConfig cfg;
  cfg.host_id = host_id;
  cfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, host_id);
  cfg.discovery = std::move(disc);
  cfg.transition_tuning = fast_tuning();
  auto rt = Runtime::create(std::move(cfg)).value();
  if (builtins) {
    EXPECT_TRUE(register_builtin_chunnels(*rt).ok());
  }
  return rt;
}

// The impl currently bound for `type` in a connection's chain ("" if
// the type is absent).
std::string bound_impl(const ConnPtr& conn, const std::string& type) {
  auto* t = dynamic_cast<TransitionableConnection*>(conn.get());
  if (!t) return "";
  for (const auto& n : t->chain())
    if (n.type == type) return n.impl_name;
  return "";
}

// One application round trip; returns false on any loss/timeout.
[[nodiscard]] bool round_trip(const ConnPtr& cli, const ConnPtr& srv, int i) {
  std::string body = "m" + std::to_string(i);
  if (!cli->send(Msg::of(body)).ok()) return false;
  auto got = srv->recv(Deadline::after(seconds(5)));
  if (!got.ok() || got.value().payload_str() != body) return false;
  if (!srv->send(Msg::of("r" + body)).ok()) return false;
  auto back = cli->recv(Deadline::after(seconds(5)));
  return back.ok() && back.value().payload_str() == "r" + body;
}

// --- upgrade on impl registration ---

TEST(LiveTransitionTest, UpgradeRebindsEstablishedConnection) {
  auto world = TestWorld::make();
  auto srv_rt = mem_runtime(world, "h-srv", world.discovery, false);
  auto cli_rt = mem_runtime(world, "h-cli", world.discovery, false);
  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<InfoChunnel>(
                      offload_info("offload/sw", 0)))
                  .ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();
  EXPECT_EQ(bound_impl(srv, "offload"), "offload/sw");
  ASSERT_TRUE(round_trip(conn, srv, 0));

  // A better implementation registers while the connection is open. The
  // watch event drives a live transition; nothing is torn down.
  ImplInfo hw = offload_info("offload/hw", 50);
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(world.discovery->register_impl(hw).ok());

  int sent = 0;
  Deadline dl = Deadline::after(seconds(10));
  while (bound_impl(srv, "offload") != "offload/hw") {
    ASSERT_FALSE(dl.expired()) << "no transition after 10s";
    ASSERT_TRUE(round_trip(conn, srv, ++sent)) << "message lost mid-transition";
  }
  // The connection works on the new chain; every message was answered.
  ASSERT_TRUE(round_trip(conn, srv, ++sent));
  EXPECT_EQ(bound_impl(conn, "offload"), "offload/hw");
  auto stats = srv_rt->transitions().stats();
  EXPECT_GE(stats.completed, 1u);
  EXPECT_EQ(stats.closed_mandatory, 0u);
  EXPECT_GE(stats.watch_events, 1u);
}

// --- revocation: fallback before the slot frees ---

TEST(LiveTransitionTest, RevocationFallsBackBeforeSlotRelease) {
  auto world = TestWorld::make();
  auto disc = std::make_shared<ReleaseCheckingDiscovery>();
  auto srv_rt = mem_runtime(world, "h-srv", disc, false);
  auto cli_rt = mem_runtime(world, "h-cli", disc, false);

  ImplInfo hw = offload_info("offload/hw", 50, {{"pool.hw", 1}});
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<InfoChunnel>(
                      offload_info("offload/sw", 0)))
                  .ok());
  ASSERT_TRUE(disc->register_impl(hw).ok());
  ASSERT_TRUE(disc->set_pool("pool.hw", 1).ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_EQ(bound_impl(srv, "offload"), "offload/hw");
  ASSERT_EQ(disc->pool_in_use("pool.hw"), 1u);
  ASSERT_TRUE(round_trip(conn, srv, 0));

  // Interpose on release(): by the time the revoked impl's slot frees,
  // the connection must already be running on the software fallback —
  // the drain-before-release invariant.
  std::atomic<int> releases{0};
  std::atomic<int> violations{0};
  std::function<void(uint64_t)> hook = [&](uint64_t) {
    releases++;
    if (bound_impl(srv, "offload") != "offload/sw") violations++;
    if (disc->pool_in_use("pool.hw") != 1) violations++;  // slot still held
  };
  disc->on_release = &hook;

  EXPECT_EQ(srv_rt->transitions().revoke_impl(srv_rt->discovery(), "offload",
                                              "offload/hw"),
            1u);

  int sent = 0;
  Deadline dl = Deadline::after(seconds(10));
  while (releases.load() == 0) {
    ASSERT_FALSE(dl.expired()) << "slot never released after revocation";
    ASSERT_TRUE(round_trip(conn, srv, ++sent)) << "message lost mid-revocation";
  }
  disc->on_release = nullptr;

  EXPECT_EQ(violations.load(), 0) << "slot freed before fallback was in place";
  EXPECT_EQ(bound_impl(srv, "offload"), "offload/sw");
  EXPECT_EQ(disc->pool_in_use("pool.hw"), 0u);
  // The freed slot is genuinely reusable: a new connection gets it. The
  // ban is per-runtime, so a fresh server runtime can bind hw again.
  ASSERT_TRUE(round_trip(conn, srv, ++sent));
  EXPECT_GE(srv_rt->transitions().stats().completed, 1u);
}

// --- keepalive + telemetry ride through a transition ---

TEST(LiveTransitionTest, KeepaliveAndTelemetrySurviveTransition) {
  auto world = TestWorld::make();
  auto srv_rt = mem_runtime(world, "h-srv", world.discovery, true);
  auto cli_rt = mem_runtime(world, "h-cli", world.discovery, true);
  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<InfoChunnel>(
                      offload_info("offload/sw", 0)))
                  .ok());

  ChunnelArgs ka;
  ka.set("interval_us", "20000");
  ka.set("dead_after_us", "300000");
  ChunnelArgs label;
  label.set("label", "live");
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("keepalive", ka),
                                               ChunnelSpec("telemetry", label),
                                               ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(round_trip(conn, srv, 0));

  ImplInfo hw = offload_info("offload/hw", 50);
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(world.discovery->register_impl(hw).ok());

  int sent = 0;
  Deadline dl = Deadline::after(seconds(10));
  while (bound_impl(srv, "offload") != "offload/hw") {
    ASSERT_FALSE(dl.expired()) << "no transition after 10s";
    ASSERT_TRUE(round_trip(conn, srv, ++sent));
  }
  // The new chain still carries keepalive + telemetry.
  auto* t = dynamic_cast<TransitionableConnection*>(srv.get());
  ASSERT_NE(t, nullptr);
  auto chain = t->chain();
  EXPECT_TRUE(std::any_of(chain.begin(), chain.end(),
                          [](const auto& n) { return n.type == "keepalive"; }));
  EXPECT_TRUE(std::any_of(chain.begin(), chain.end(),
                          [](const auto& n) { return n.type == "telemetry"; }));

  // Idle across several heartbeat intervals: the fresh keepalive epoch
  // must not produce a spurious liveness failure...
  auto idle = srv->recv(Deadline::after(ms(250)));
  ASSERT_FALSE(idle.ok());
  EXPECT_EQ(idle.error().code, Errc::timed_out) << idle.error().to_string();
  // ...and traffic still flows afterwards.
  ASSERT_TRUE(round_trip(conn, srv, ++sent));

  // Telemetry kept counting across the swap (client sends so far, plus
  // heartbeats — so at least every app message was seen).
  uint64_t received = 0;
  for (const auto& impl : srv_rt->registry().lookup_type("telemetry")) {
    if (auto* tel = dynamic_cast<TelemetryChunnel*>(impl.get()))
      received += tel->snapshot("live").msgs_received;
  }
  EXPECT_GE(received, static_cast<uint64_t>(sent + 1));
}

// --- multi-peer connections decline offers ---

TEST(LiveTransitionTest, MultiPeerConnectionDeclinesOffers) {
  auto world = TestWorld::make();
  auto s1_rt = mem_runtime(world, "h-s1", world.discovery, false);
  auto s2_rt = mem_runtime(world, "h-s2", world.discovery, false);
  auto cli_rt = mem_runtime(world, "h-cli", world.discovery, false);
  for (auto& rt : {s1_rt, s2_rt})
    ASSERT_TRUE(rt->register_chunnel(std::make_shared<InfoChunnel>(
                       offload_info("offload/sw", 0)))
                    .ok());

  auto l1 = s1_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                .value()
                .listen(Addr::mem("h-s1", 100))
                .value();
  auto l2 = s2_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                .value()
                .listen(Addr::mem("h-s2", 100))
                .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect({l1->addr(), l2->addr()},
                           Deadline::after(seconds(5)))
                  .value();
  auto c1 = l1->accept(Deadline::after(seconds(5))).value();
  auto c2 = l2->accept(Deadline::after(seconds(5))).value();

  // s1 gains a better impl and offers a transition; group transitions
  // are future work, so the multi-peer client must decline — and the
  // connection must keep working on the old chain.
  ImplInfo hw = offload_info("offload/hw", 50);
  ASSERT_TRUE(s1_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(world.discovery->register_impl(hw).ok());

  Deadline dl = Deadline::after(seconds(10));
  int i = 0;
  while (s1_rt->transitions().stats().declined == 0) {
    ASSERT_FALSE(dl.expired()) << "offer never declined";
    std::string body = "fan" + std::to_string(++i);
    ASSERT_TRUE(conn->send(Msg::of(body)).ok());
    EXPECT_EQ(c1->recv(Deadline::after(seconds(5))).value().payload_str(),
              body);
    EXPECT_EQ(c2->recv(Deadline::after(seconds(5))).value().payload_str(),
              body);
    // Pump the client recv path so the offer frame is processed.
    (void)conn->recv(Deadline::after(ms(20)));
  }
  EXPECT_EQ(bound_impl(c1, "offload"), "offload/sw");  // rolled back
  EXPECT_EQ(s1_rt->transitions().stats().completed, 0u);

  // Fan-out still works after the decline.
  ASSERT_TRUE(conn->send(Msg::of("after")).ok());
  auto r1 = c1->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  EXPECT_EQ(r1.value().payload_str(), "after");
  auto r2 = c2->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2.value().payload_str(), "after");
  c2.reset();
  c1.reset();
  conn.reset();
  l2.reset();
  l1.reset();
  cli_rt.reset();
  s2_rt.reset();
  s1_rt.reset();
}

// --- renegotiate_all with nothing better is a no-op ---

TEST(LiveTransitionTest, NoopRenegotiateAllLeavesConnectionsAlone) {
  auto world = TestWorld::make();
  auto srv_rt = mem_runtime(world, "h-srv", world.discovery, false);
  auto cli_rt = mem_runtime(world, "h-cli", world.discovery, false);
  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<InfoChunnel>(
                      offload_info("offload/sw", 0)))
                  .ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();

  // Selection picks the same chain -> Begin::unchanged, no offer, no
  // epoch churn.
  EXPECT_EQ(srv_rt->transitions().renegotiate_all(), 0u);
  auto* t = dynamic_cast<TransitionableConnection*>(srv.get());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->epoch(), 0u);
  for (int i = 0; i < 5; i++) ASSERT_TRUE(round_trip(conn, srv, i));
  auto stats = srv_rt->transitions().stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.offers_sent, 0u);
}

// --- rollback notifies the client, which reverts and recovers ---

TEST(LiveTransitionTest, RollbackNotifiesClientWhichRevertsAndRecovers) {
  auto world = TestWorld::make();

  // The client's transports are fault-injectable so the test can
  // black-hole its transition acks, forcing the server's ack deadline to
  // pass while the client has already cut over — the lost-ack rollback.
  auto drop_acks = std::make_shared<std::atomic<bool>>(false);
  auto cli_factory = std::make_shared<FaultInjectingFactory>(
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-cli"),
      FaultInjectingTransport::Options{});
  cli_factory->set_send_filter([drop_acks](const Addr&, BytesView p) {
    return drop_acks->load() && p.size() >= kWireHeaderSize &&
           p[2] == static_cast<uint8_t>(MsgKind::transition_ack);
  });

  // Cancel/revert needs the old epoch to still be draining when the ack
  // deadline passes (the revert target is the draining stack), so
  // ack_timeout < drain_timeout — the opposite of fast_tuning().
  TransitionTuning tuning;
  tuning.offer_retry = ms(25);
  tuning.ack_timeout = ms(250);
  tuning.drain_timeout = ms(2000);
  tuning.sweep_period = ms(10);

  RuntimeConfig scfg;
  scfg.host_id = "h-srv";
  scfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-srv");
  scfg.discovery = world.discovery;
  scfg.transition_tuning = tuning;
  auto srv_rt = Runtime::create(std::move(scfg)).value();
  RuntimeConfig ccfg;
  ccfg.host_id = "h-cli";
  ccfg.transports = cli_factory;
  ccfg.discovery = world.discovery;
  ccfg.transition_tuning = tuning;
  auto cli_rt = Runtime::create(std::move(ccfg)).value();

  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<InfoChunnel>(
                      offload_info("offload/sw", 0)))
                  .ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(round_trip(conn, srv, 0));

  // Black-hole acks, then provoke an upgrade offer.
  drop_acks->store(true);
  ImplInfo hw = offload_info("offload/hw", 50);
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(world.discovery->register_impl(hw).ok());

  // The client cuts over and acks into the void; at the ack deadline the
  // server rolls back and sends transition_cancel on the old token; the
  // client reverts onto its still-draining old stack. Keep both recv
  // paths pumped — messages the client sends on the orphaned new token
  // are lost by design, so no round-trip asserts inside this window.
  Deadline dl = Deadline::after(seconds(10));
  while (srv_rt->transitions().stats().rolled_back == 0 ||
         cli_rt->transitions().stats().reverts == 0) {
    ASSERT_FALSE(dl.expired()) << "rollback/revert never happened";
    (void)conn->send(Msg::of("probe"));
    (void)srv->recv(Deadline::after(ms(20)));
    (void)conn->recv(Deadline::after(ms(20)));
  }
  auto mid = srv_rt->transitions().stats();
  EXPECT_GE(mid.cancels_sent, 1u);
  EXPECT_EQ(mid.completed, 0u);
  EXPECT_EQ(bound_impl(conn, "offload"), "offload/sw") << "revert missed";

  // Both sides are back on the old epoch. Drain the probes that landed
  // on the old stack before the cutover, then verify traffic flows.
  drop_acks->store(false);
  while (srv->recv(Deadline::after(ms(100))).ok()) {
  }
  int sent = 100;
  ASSERT_TRUE(round_trip(conn, srv, ++sent));

  // The connection is not poisoned: a fresh offer (the server reuses the
  // epoch number, so a stale cached ack would break this) now completes.
  EXPECT_GE(srv_rt->transitions().renegotiate_all(), 1u);
  dl = Deadline::after(seconds(10));
  while (bound_impl(srv, "offload") != "offload/hw") {
    ASSERT_FALSE(dl.expired()) << "post-revert upgrade never completed";
    ASSERT_TRUE(round_trip(conn, srv, ++sent)) << "message lost after revert";
  }
  ASSERT_TRUE(round_trip(conn, srv, ++sent));
  EXPECT_EQ(bound_impl(conn, "offload"), "offload/hw");
  auto stats = srv_rt->transitions().stats();
  EXPECT_GE(stats.completed, 1u);
  EXPECT_GE(stats.rolled_back, 1u);
}

// Regression: a transition_cancel that arrives *after* the client's old
// stack finished draining has nothing to revert onto (revert() reports
// not_found). The client must close the dead-epoch connection promptly —
// not keep sending into a token the server has rolled away from — and a
// fresh connection must establish cleanly afterwards.
TEST(LiveTransitionTest, CancelAfterDrainClosesDeadEpochConnection) {
  auto world = TestWorld::make();

  auto drop_acks = std::make_shared<std::atomic<bool>>(false);
  auto cli_factory = std::make_shared<FaultInjectingFactory>(
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-cli"),
      FaultInjectingTransport::Options{});
  cli_factory->set_send_filter([drop_acks](const Addr&, BytesView p) {
    return drop_acks->load() && p.size() >= kWireHeaderSize &&
           p[2] == static_cast<uint8_t>(MsgKind::transition_ack);
  });

  // The opposite ordering from the revert test: ack_timeout > drain_timeout,
  // so the client's old stack is fully drained by the time the server's ack
  // deadline passes and the cancel goes out.
  TransitionTuning tuning;
  tuning.offer_retry = ms(25);
  tuning.ack_timeout = ms(700);
  tuning.drain_timeout = ms(50);
  tuning.sweep_period = ms(10);

  RuntimeConfig scfg;
  scfg.host_id = "h-srv";
  scfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-srv");
  scfg.discovery = world.discovery;
  scfg.transition_tuning = tuning;
  auto srv_rt = Runtime::create(std::move(scfg)).value();
  RuntimeConfig ccfg;
  ccfg.host_id = "h-cli";
  ccfg.transports = cli_factory;
  ccfg.discovery = world.discovery;
  ccfg.transition_tuning = tuning;
  auto cli_rt = Runtime::create(std::move(ccfg)).value();

  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<InfoChunnel>(
                      offload_info("offload/sw", 0)))
                  .ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 101))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(round_trip(conn, srv, 0));

  // Black-hole acks and provoke an upgrade. The client cuts over, acks
  // into the void, and drains its old stack well before the server gives
  // up and cancels.
  drop_acks->store(true);
  ImplInfo hw = offload_info("offload/hw", 50);
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(world.discovery->register_impl(hw).ok());

  Deadline dl = Deadline::after(seconds(15));
  while (cli_rt->transitions().stats().dead_epoch_closes == 0) {
    ASSERT_FALSE(dl.expired()) << "dead-epoch connection never closed";
    (void)conn->send(Msg::of("probe"));
    (void)srv->recv(Deadline::after(ms(20)));
    (void)conn->recv(Deadline::after(ms(20)));
  }
  EXPECT_GE(srv_rt->transitions().stats().rolled_back, 1u);
  EXPECT_GE(srv_rt->transitions().stats().cancels_sent, 1u);
  EXPECT_EQ(cli_rt->transitions().stats().reverts, 0u)
      << "there was nothing left to revert onto";

  // Closed means closed: no hanging recv, no sends into the dead epoch.
  EXPECT_FALSE(conn->recv(Deadline::after(ms(100))).ok());
  EXPECT_FALSE(conn->send(Msg::of("into the void")).ok());

  // The listener is unharmed: a fresh connection (acks flowing again)
  // establishes and upgrades normally.
  drop_acks->store(false);
  auto conn2 = cli_rt->endpoint("cli2", ChunnelDag::empty())
                   .value()
                   .connect(listener->addr(), Deadline::after(seconds(5)))
                   .value();
  auto srv2 = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(round_trip(conn2, srv2, 1));
}

// --- the Fig-4 story over real sockets: UDP -> unix-socket fast path ---

TEST(LiveTransitionTest, LiveUpgradeToLocalFastPath) {
  // Server and client share a host but run in separate runtimes (the
  // containerized-app deployment). The server starts with only the
  // passthrough local_or_remote impl: traffic flows over UDP. The fast
  // path library "loads" mid-connection; the established connection
  // must migrate onto the unix socket without dropping a message.
  auto disc = std::make_shared<DiscoveryState>();
  RuntimeConfig scfg;
  scfg.host_id = "fp-host";
  scfg.transports = std::make_shared<DefaultTransportFactory>();
  scfg.discovery = disc;
  scfg.transition_tuning = fast_tuning();
  auto srv_rt = Runtime::create(std::move(scfg)).value();
  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<PassthroughChunnel>(
                      "local_or_remote", "local_or_remote/none"))
                  .ok());

  RuntimeConfig ccfg;
  ccfg.host_id = "fp-host";  // same host: the fast path applies
  ccfg.transports = std::make_shared<DefaultTransportFactory>();
  ccfg.discovery = disc;
  ccfg.transition_tuning = fast_tuning();
  auto cli_rt = Runtime::create(std::move(ccfg)).value();
  ASSERT_TRUE(register_builtin_chunnels(*cli_rt).ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("local_or_remote")))
                      .value()
                      .listen(Addr::udp("127.0.0.1", 0))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();

  ASSERT_TRUE(conn->send(Msg::of("pre")).ok());
  auto first = srv->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().src.kind, AddrKind::udp);  // no fast path yet
  ASSERT_TRUE(srv->send(Msg::of("rpre")).ok());
  ASSERT_TRUE(conn->recv(Deadline::after(seconds(5))).ok());

  // The offload library loads: register the impl and announce it. The
  // listener late-activates its on_listen (binding the unix socket) and
  // the controller transitions the live connection onto it.
  auto fp = std::make_shared<LocalFastPathChunnel>();
  ImplInfo fp_info = fp->info();
  ASSERT_TRUE(srv_rt->register_chunnel(fp).ok());
  ASSERT_TRUE(disc->register_impl(fp_info).ok());

  int i = 0;
  bool over_uds = false;
  Deadline dl = Deadline::after(seconds(10));
  while (!over_uds) {
    ASSERT_FALSE(dl.expired()) << "connection never moved to the unix socket";
    std::string body = "m" + std::to_string(++i);
    ASSERT_TRUE(conn->send(Msg::of(body)).ok());
    auto got = srv->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(got.ok()) << "lost " << body << ": "
                          << got.error().to_string();
    ASSERT_EQ(got.value().payload_str(), body);
    over_uds = got.value().src.kind == AddrKind::uds;
    ASSERT_TRUE(srv->send(Msg::of("r" + body)).ok());
    auto back = conn->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(back.ok()) << "lost reply to " << body;
    ASSERT_EQ(back.value().payload_str(), "r" + body);
  }
  EXPECT_EQ(bound_impl(srv, "local_or_remote"), "local_or_remote/uds");
  auto stats = srv_rt->transitions().stats();
  EXPECT_GE(stats.completed, 1u);
  EXPECT_GT(stats.max_cutover_ns, 0u);
}

// --- epoch minting ---

// Transition epochs are namespaced by server identity: a restarted or
// migrated peer (same connection token, different listener) can never
// re-mint an epoch number an old listener already used, so stale acks and
// cached per-epoch state can't collide across server generations.
TEST(LiveTransitionTest, TransitionEpochsCarryServerIdentitySalt) {
  // The salt is deterministic per identity, occupies only the bits above
  // the counter, and distinct identities mint from disjoint spaces.
  uint64_t s1 = mint_epoch_salt("h-a|p0|mem:h-a:100");
  uint64_t s2 = mint_epoch_salt("h-b|p0|mem:h-b:100");
  EXPECT_EQ(s1, mint_epoch_salt("h-a|p0|mem:h-a:100"));
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s1 & kEpochCounterMask, 0u);
  EXPECT_EQ(s2 & kEpochCounterMask, 0u);
  EXPECT_NE(s1, 0u);

  // Live check: an upgrade mints salt | 1 — the low bits count
  // transitions on this connection, the high bits are this listener's.
  auto world = TestWorld::make();
  auto srv_rt = mem_runtime(world, "h-srv", world.discovery, false);
  auto cli_rt = mem_runtime(world, "h-cli", world.discovery, false);
  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<InfoChunnel>(
                      offload_info("offload/sw", 0)))
                  .ok());

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(5))).value();

  ImplInfo hw = offload_info("offload/hw", 50);
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(world.discovery->register_impl(hw).ok());

  int sent = 0;
  Deadline dl = Deadline::after(seconds(10));
  while (bound_impl(srv, "offload") != "offload/hw") {
    ASSERT_FALSE(dl.expired()) << "no transition after 10s";
    ASSERT_TRUE(round_trip(conn, srv, ++sent));
  }

  auto* t = dynamic_cast<TransitionableConnection*>(srv.get());
  ASSERT_NE(t, nullptr);
  uint64_t expected_salt = mint_epoch_salt(
      srv_rt->config().host_id + "|" + srv_rt->config().process_id + "|" +
      listener->addr().to_string());
  EXPECT_EQ(t->epoch() & ~kEpochCounterMask, expected_salt)
      << "minted epoch not salted with the listener identity";
  EXPECT_EQ(t->epoch() & kEpochCounterMask, 1u)
      << "first transition should mint counter 1";
  // Both ends agree on the full (salted) epoch.
  auto* tc = dynamic_cast<TransitionableConnection*>(conn.get());
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->epoch(), t->epoch());
}

// --- controller ownership: teardown never lands on its thread ---

// An impl whose late on_listen keeps the controller thread inside a call
// on the listener for a while, and says when it started. The while is
// longer than a listener close takes, so the close ends inside it.
class SlowListenChunnel final : public ChunnelImpl {
 public:
  SlowListenChunnel(ImplInfo info, std::atomic<bool>& entered)
      : info_(std::move(info)), entered_(entered) {}
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext&) override { return inner; }
  Result<void> on_listen(ListenContext&) override {
    entered_ = true;
    sleep_for(ms(100));
    return ok();
  }

 private:
  ImplInfo info_;
  std::atomic<bool>& entered_;
};

// A listener owns its runtime, and the runtime's teardown joins the
// controller thread. If the controller held the last ref to a listener,
// dropping it would run ~Runtime on the controller thread, which then
// joins itself (std::terminate). A new impl's watch event makes the
// controller run its on_listen on the listener; drop the last outside
// refs to the runtime and the listener meanwhile, many times, in both
// orders.
TEST(TransitionControllerTest, TeardownDuringControllerCallNeverSelfJoins) {
  auto world = TestWorld::make();
  for (int i = 0; i < 10; i++) {
    std::string host = "h-teardown" + std::to_string(i);
    auto rt = mem_runtime(world, host, world.discovery, false);
    auto listener = rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                        .value()
                        .listen(Addr::mem(host, 1))
                        .value();
    std::atomic<bool> entered{false};
    ImplInfo info = offload_info("offload/late" + std::to_string(i), 0);
    ASSERT_TRUE(
        rt->register_chunnel(std::make_shared<SlowListenChunnel>(info, entered))
            .ok());
    ASSERT_TRUE(world.discovery->register_impl(info).ok());
    Deadline dl = Deadline::after(seconds(10));
    while (!entered.load()) {
      ASSERT_FALSE(dl.expired()) << "controller never ran the late on_listen";
      sleep_for(us(100));
    }
    if (i % 2) {
      rt.reset();  // the listener now holds the last ref to the runtime
      listener.reset();
    } else {
      listener.reset();
      rt.reset();
    }
  }
}

}  // namespace
}  // namespace bertha
