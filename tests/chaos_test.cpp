// Chaos tests: the fault-tolerance machinery under sustained packet loss
// and partitions. The FaultInjectingTransport gives deterministic (seeded)
// chaos, so these are regular tier-1 tests, not a flaky soak suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "control/cluster.hpp"
#include "control/reshard.hpp"
#include "util/clock.hpp"
#include "core/discovery_cache.hpp"
#include "core/renegotiation.hpp"
#include "net/fault.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

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

std::string bound_impl(const ConnPtr& conn, const std::string& type) {
  auto* t = dynamic_cast<TransitionableConnection*>(conn.get());
  if (!t) return "";
  for (const auto& n : t->chain())
    if (n.type == type) return n.impl_name;
  return "";
}

[[nodiscard]] bool round_trip(const ConnPtr& cli, const ConnPtr& srv, int i) {
  std::string body = "m" + std::to_string(i);
  if (!cli->send(Msg::of(body)).ok()) return false;
  auto got = srv->recv(Deadline::after(seconds(5)));
  if (!got.ok() || got.value().payload_str() != body) return false;
  if (!srv->send(Msg::of("r" + body)).ok()) return false;
  auto back = cli->recv(Deadline::after(seconds(5)));
  return back.ok() && back.value().payload_str() == "r" + body;
}

// 100 acquire/release cycles against a discovery server behind a link
// dropping 20% of datagrams each way. Idempotent retries must converge
// with zero leaked allocations and zero duplicate allocation ids.
TEST(ChaosTest, AcquireReleaseConvergesUnderTwentyPercentLoss) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state->set_pool("pool.x", 4).ok());
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state);

  FaultInjectingTransport::Options fo;
  fo.drop = 0.2;  // applied independently to requests and responses
  fo.seed = 0xC0FFEE;
  auto stats = std::make_shared<FaultStats>();
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(60);
  ro.retries = 10;
  ro.backoff = {ms(5), 2.0, ms(40), 0.3};
  ro.backoff_seed = 9;
  ro.stats = stats;
  RemoteDiscovery client(
      TransportPtr(new FaultInjectingTransport(
          net->bind(Addr::mem("cli", 0)).value(), fo)),
      server.addr(), ro);

  std::set<uint64_t> ids;
  for (int cycle = 0; cycle < 100; cycle++) {
    auto id = client.acquire({{"pool.x", 1}});
    ASSERT_TRUE(id.ok()) << "cycle " << cycle << ": "
                         << id.error().to_string();
    EXPECT_TRUE(ids.insert(id.value()).second)
        << "duplicate alloc id " << id.value() << " at cycle " << cycle;
    auto rel = client.release(id.value());
    ASSERT_TRUE(rel.ok()) << "cycle " << cycle << ": "
                          << rel.error().to_string();
  }

  EXPECT_EQ(ids.size(), 100u);
  EXPECT_EQ(state->live_allocs(), 0u) << "leaked allocations under loss";
  EXPECT_EQ(state->pool_in_use("pool.x"), 0u) << "pool accounting drifted";
  // The link really was lossy, retries really happened, and at least one
  // retried mutation was answered from the server's dedup cache (i.e. we
  // exercised the executed-but-unacknowledged path, not just lost sends).
  EXPECT_GT(stats->rpc_retries.load(), 0u);
  EXPECT_GT(server.dedup_hits(), 0u);
  EXPECT_EQ(stats->rpc_failures.load(), 0u);
}

// Discovery partitioned away at establishment time: negotiation must fall
// back to the local software impl and mark the connection degraded; when
// the partition heals, the recovery probe triggers renegotiation and the
// connection upgrades to the hardware impl automatically.
TEST(ChaosTest, DegradedEstablishmentUpgradesWhenPartitionHeals) {
  auto world = TestWorld::make();

  // Real discovery service, reached over a faultable transport.
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state->set_pool("pool.hw", 1).ok());
  DiscoveryServer server(world.mem->bind(Addr::mem("disc", 1)).value(), state);

  auto* fault = new FaultInjectingTransport(
      world.mem->bind(Addr::mem("h-srv", 0)).value(), {});
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(60);
  ro.retries = 0;
  auto stats = std::make_shared<FaultStats>();
  CachingDiscovery::Options co;
  co.probe_period = ms(50);
  auto caching = std::make_shared<CachingDiscovery>(
      std::make_shared<RemoteDiscovery>(TransportPtr(fault), server.addr(),
                                        ro),
      co, stats);

  TransitionTuning tuning;
  tuning.offer_retry = ms(25);
  tuning.ack_timeout = ms(1000);
  tuning.drain_timeout = ms(300);
  tuning.sweep_period = ms(10);

  RuntimeConfig scfg;
  scfg.host_id = "h-srv";
  scfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-srv");
  scfg.discovery = caching;
  scfg.fault_stats = stats;
  scfg.transition_tuning = tuning;
  scfg.handshake_timeout = ms(500);
  scfg.handshake_retries = 10;
  auto srv_rt = Runtime::create(std::move(scfg)).value();

  RuntimeConfig ccfg;
  ccfg.host_id = "h-cli";
  ccfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h-cli");
  ccfg.discovery = state;  // the client side is not partitioned
  ccfg.transition_tuning = tuning;
  ccfg.handshake_timeout = ms(500);
  ccfg.handshake_retries = 10;
  auto cli_rt = Runtime::create(std::move(ccfg)).value();

  // hw outranks sw but needs a discovery-managed slot, so it is only
  // bindable while the service is reachable.
  ImplInfo hw = offload_info("offload/hw", 50, {{"pool.hw", 1}});
  ASSERT_TRUE(srv_rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
  ASSERT_TRUE(srv_rt
                  ->register_chunnel(std::make_shared<InfoChunnel>(
                      offload_info("offload/sw", 0)))
                  .ok());
  ASSERT_TRUE(state->register_impl(hw).ok());

  // Partition before anything warms the cache: the worst case (cold
  // cache, service gone) must still establish.
  fault->partition(/*tx=*/true, /*rx=*/true);

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(10)))
                  .value();
  auto srv = listener->accept(Deadline::after(seconds(10))).value();

  EXPECT_EQ(bound_impl(srv, "offload"), "offload/sw")
      << "bound a resource-gated impl without discovery";
  EXPECT_EQ(listener->degraded_connections(), 1u);
  EXPECT_GE(stats->degraded_entries.load(), 1u);
  ASSERT_TRUE(round_trip(conn, srv, 0));

  // Heal. The recovery probe notices, the synthetic watch event triggers
  // renegotiation, and the connection upgrades live.
  fault->partition(false, false);
  int sent = 0;
  Deadline dl = Deadline::after(seconds(10));
  while (bound_impl(srv, "offload") != "offload/hw") {
    ASSERT_FALSE(dl.expired()) << "never upgraded after the partition healed";
    ASSERT_TRUE(round_trip(conn, srv, ++sent)) << "message lost mid-upgrade";
  }
  ASSERT_TRUE(round_trip(conn, srv, ++sent));
  EXPECT_EQ(listener->degraded_connections(), 0u);
  EXPECT_GE(stats->degraded_exits.load(), 1u);
  EXPECT_EQ(state->pool_in_use("pool.hw"), 1u);
  EXPECT_GE(srv_rt->transitions().stats().completed, 1u);
}

// A subscribed client partitioned away mid-burst must converge after the
// heal through seq-resume alone: the registrations it missed arrive as a
// watch-stream replay (not a snapshot, not re-prime queries), land
// exactly once, and are folded into the caching layer's catalogue so a
// later partition can be served from cache.
TEST(ChaosTest, PartitionedSubscriberConvergesViaSeqResume) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  DiscoveryServer::Options so;
  so.coalesce_window = ms(2);
  so.keepalive = ms(30);  // the post-heal keepalive is what exposes the gap
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state, so);

  auto* fault = new FaultInjectingTransport(
      net->bind(Addr::mem("cli", 0)).value(), {});
  auto stats = std::make_shared<FaultStats>();
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(100);
  ro.retries = 2;
  ro.stats = stats;
  CachingDiscovery::Options co;
  co.probe_period = ms(50);
  CachingDiscovery caching(
      std::make_shared<RemoteDiscovery>(TransportPtr(fault), server.addr(),
                                        ro),
      co, stats);

  auto w = caching.watch("offload").value();

  // Seeded chaos: the seed picks how much of the burst straddles the
  // partition; every split must converge the same way.
  Rng rng(0xD15C0);
  auto reg = [&](const std::string& name) {
    ASSERT_TRUE(state->register_impl(offload_info(name, 1)).ok());
  };
  std::vector<std::string> pre, mid;
  size_t n_pre = 1 + rng.next_below(3);
  for (size_t i = 0; i < n_pre; i++) {
    pre.push_back("offload/pre" + std::to_string(i));
    reg(pre.back());
  }
  std::map<std::string, int> seen;
  Deadline dl = Deadline::after(seconds(10));
  while (seen.size() < pre.size() && !dl.expired()) {
    auto ev = w->next(Deadline::after(ms(100)));
    if (ev.ok()) seen[ev.value().name]++;
  }
  ASSERT_EQ(seen.size(), pre.size()) << "pre-partition events lost";

  fault->partition(/*tx=*/true, /*rx=*/true);
  size_t n_mid = 4 + rng.next_below(5);
  for (size_t i = 0; i < n_mid; i++) {
    mid.push_back("offload/mid" + std::to_string(i));
    reg(mid.back());
    sleep_for(ms(3));  // spread the burst across several dropped pushes
  }
  sleep_for(ms(60));  // everything above hit the partition
  fault->partition(false, false);

  // Post-heal: the replay delivers exactly the missed events, once each.
  dl = Deadline::after(seconds(10));
  auto caught_up = [&] {
    for (const auto& n : mid)
      if (seen.find(n) == seen.end()) return false;
    return true;
  };
  while (!caught_up() && !dl.expired()) {
    auto ev = w->next(Deadline::after(ms(100)));
    if (ev.ok()) seen[ev.value().name]++;
  }
  for (const auto& n : mid)
    EXPECT_EQ(seen[n], 1) << n << " lost or double-applied";
  for (const auto& n : pre)
    EXPECT_EQ(seen[n], 1) << n << " replayed after already being applied";
  EXPECT_GE(stats->watch_resubscribes.load(), 1u);
  EXPECT_EQ(server.snapshots_served(), 0u)
      << "converged by snapshot, not seq-resume";
  // The whole recovery was push-driven: the client never issued a single
  // RPC, let alone a full catalogue re-prime.
  EXPECT_EQ(server.requests_served(), 0u);

  // The stream also primed the cache: partition again and the catch-up
  // catalogue — including the mid-partition registrations the client
  // never queried for — is served from cache.
  fault->partition(true, true);
  auto q = caching.query("offload");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  std::set<std::string> names;
  for (const auto& i : q.value()) names.insert(i.name);
  for (const auto& n : mid)
    EXPECT_TRUE(names.count(n)) << n << " missing from the cached catalogue";
  EXPECT_GE(stats->catalogue_hits.load(), 1u);
}

// The control-plane acceptance run: a 2-partition x 3-replica discovery
// cluster serving two runtimes' establishment path, with every replica's
// client-facing link dropping 5% of datagrams. Mid-run, the replica
// actively serving the partition that owns the "offload" catalogue is
// killed. Required: zero acknowledged registrations/leases/allocations
// lost, watch streams converge by seq-resume (never a snapshot), and
// establishment keeps succeeding at full fidelity throughout.
TEST(ChaosTest, ReplicatedControlPlaneSurvivesReplicaLossUnderDrop) {
  auto net = MemNetwork::create();
  auto stats = std::make_shared<FaultStats>();

  DiscoveryCluster::Config ccfg;
  ccfg.partitions = 2;
  ccfg.replicas = 3;
  ccfg.transports =
      std::make_shared<DefaultTransportFactory>(net, nullptr, "ctrl");
  ccfg.replica.sweep_period = ms(25);
  ccfg.replica.server.coalesce_window = ms(2);
  ccfg.replica.server.keepalive = ms(30);
  // Chaos on the client-facing links only: the replication channel's own
  // loss recovery is exercised by mcast_test; here the fault under test
  // is replica death as seen by retrying clients.
  ccfg.decorate = [](TransportPtr t, const std::string& role) -> TransportPtr {
    if (role.find("-rpc") == std::string::npos) return t;
    FaultInjectingTransport::Options fo;
    fo.drop = 0.05;
    fo.seed = std::hash<std::string>{}(role) | 1;
    return TransportPtr(new FaultInjectingTransport(std::move(t), fo));
  };
  auto cluster = DiscoveryCluster::start(std::move(ccfg)).value();

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(80);
  rpc.retries = 8;
  rpc.backoff = {ms(5), 2.0, ms(40), 0.3};
  rpc.watch_failover_timeout = ms(250);
  rpc.stats = stats;

  // The catalogue is published under a lease, heartbeat-renewed across
  // the lossy link and (later) across the failover.
  RemoteDiscovery::Options wrpc = rpc;
  wrpc.lease_ttl = ms(400);
  auto writer = cluster->client("chaos-wr", wrpc).value();
  ASSERT_TRUE(writer->set_pool("pool.hw", 64).ok());
  ImplInfo hw = offload_info("offload/hw", 50, {{"pool.hw", 1}});
  ImplInfo sw = offload_info("offload/sw", 0);
  ASSERT_TRUE(writer->register_impl(hw).ok());
  ASSERT_TRUE(writer->register_impl(sw).ok());

  auto obs = cluster->client("chaos-obs", rpc).value();
  auto w = obs->watch("offload").value();

  auto mk = [&](const std::string& host) {
    RuntimeConfig cfg;
    cfg.host_id = host;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(net, nullptr, host);
    cfg.discovery = cluster->client(host + "-disc", rpc).value();
    cfg.fault_stats = stats;
    cfg.handshake_timeout = ms(500);
    cfg.handshake_retries = 10;
    auto rt = Runtime::create(std::move(cfg)).value();
    EXPECT_TRUE(rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
    EXPECT_TRUE(rt->register_chunnel(std::make_shared<InfoChunnel>(sw)).ok());
    return rt;
  };
  auto srv_rt = mk("h-srv");
  auto cli_rt = mk("h-cli");

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();

  // Connections hold their pool.hw slot, so pool accounting at the end
  // audits every acknowledged acquire.
  std::vector<std::pair<ConnPtr, ConnPtr>> held;
  auto establish = [&](int i) {
    auto conn = ep.connect(listener->addr(), Deadline::after(seconds(10)));
    ASSERT_TRUE(conn.ok()) << "establishment " << i << " failed: "
                           << conn.error().to_string();
    auto srv = listener->accept(Deadline::after(seconds(10)));
    ASSERT_TRUE(srv.ok());
    EXPECT_EQ(bound_impl(srv.value(), "offload"), "offload/hw")
        << "conn " << i << " degraded instead of riding the failover";
    ASSERT_TRUE(round_trip(conn.value(), srv.value(), i));
    held.emplace_back(conn.value(), srv.value());
  };

  const int kTotal = 12;
  for (int i = 0; i < kTotal / 2; i++) {
    establish(i);
    if (HasFatalFailure()) return;
  }

  // Kill the replica actively serving the partition that owns the
  // "offload" catalogue, as seen by the server runtime's client.
  auto srv_disc =
      std::dynamic_pointer_cast<ClusterDiscovery>(srv_rt->config().discovery);
  ASSERT_NE(srv_disc, nullptr);
  size_t part = srv_disc->partition_map().index_for_type("offload");
  Addr active = srv_disc->partition_client(part).active_server();
  const auto& servers = cluster->partition_servers(part);
  size_t victim = 0;
  for (size_t r = 0; r < servers.size(); r++)
    if (servers[r] == active) victim = r;
  cluster->kill_replica(part, victim);

  for (int i = kTotal / 2; i < kTotal; i++) {
    establish(i);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(srv_disc->server_failovers(), 1u);

  // Zero acknowledged loss: the full catalogue answers from a fresh
  // client, and every surviving replica of the pool's partition accounts
  // for every held allocation.
  auto audit = cluster->client("chaos-audit", rpc).value();
  auto q = audit->query("offload");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  std::set<std::string> names;
  for (const auto& e : q.value()) names.insert(e.name);
  EXPECT_TRUE(names.count("offload/hw"));
  EXPECT_TRUE(names.count("offload/sw"));
  size_t pool_part = audit->partition_map().index_for_pool("pool.hw");
  Deadline dl = Deadline::after(seconds(5));
  auto settled = [&] {
    for (size_t r = 0; r < 3; r++)
      if (cluster->alive(pool_part, r) &&
          cluster->replica(pool_part, r)->state()->pool_in_use("pool.hw") !=
              static_cast<uint64_t>(kTotal))
        return false;
    return true;
  };
  while (!settled() && !dl.expired()) sleep_for(ms(10));
  EXPECT_TRUE(settled()) << "pool accounting diverged or lost allocations";

  // The watch stream delivered each registration exactly once across the
  // drop-induced resubscribes AND the replica kill — by seq-resume, never
  // a snapshot — and no lease was spuriously reaped.
  std::map<std::string, int> seen;
  dl = Deadline::after(seconds(10));
  while (seen.size() < 2 && !dl.expired()) {
    auto ev = w->next(Deadline::after(ms(100)));
    if (!ev.ok()) continue;
    ASSERT_NE(ev.value().kind, WatchKind::impl_unregistered)
        << "spurious lease expiry for " << ev.value().name;
    seen[ev.value().name]++;
  }
  EXPECT_EQ(seen["offload/hw"], 1);
  EXPECT_EQ(seen["offload/sw"], 1);
  EXPECT_EQ(stats->watch_snapshots.load(), 0u);
  for (size_t p = 0; p < 2; p++)
    for (size_t r = 0; r < 3; r++)
      if (cluster->alive(p, r)) {
        EXPECT_EQ(cluster->replica(p, r)->server().snapshots_served(), 0u);
      }
}

// Sanitizer runs are legitimately slower; scale the latency assertions,
// not the correctness ones.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kLatencyMult = 5;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kLatencyMult = 5;
#else
constexpr int kLatencyMult = 1;
#endif
#else
constexpr int kLatencyMult = 1;
#endif

// The self-healing acceptance run: a 2x3 cluster with standby sequencers
// under 5% client-link loss. Mid-run the active sequencer of the pool's
// partition is killed (view change) AND a replica is killed and later
// restarted (snapshot catch-up). Required: zero acknowledged
// registrations/leases/allocations lost, the restarted replica converges
// to the identical watch seq via snapshot + suffix replay with zero
// bounded skips, and establishment keeps succeeding throughout — the
// view-change outage stays inside one establishment's retry budget.
TEST(ChaosTest, SelfHealingControlPlaneSurvivesSequencerAndReplicaLoss) {
  uint64_t seed = 0xBE27A;
  if (const char* s = std::getenv("BERTHA_CHAOS_SEED"))
    seed = std::strtoull(s, nullptr, 0);
  // Every failure names the seed that replays this fault schedule.
  SCOPED_TRACE("BERTHA_CHAOS_SEED=" + std::to_string(seed));
  auto net = MemNetwork::create();
  auto stats = std::make_shared<FaultStats>();

  DiscoveryCluster::Config ccfg;
  ccfg.partitions = 2;
  ccfg.replicas = 3;
  ccfg.sequencer_candidates = 2;
  ccfg.transports =
      std::make_shared<DefaultTransportFactory>(net, nullptr, "ctrl");
  ccfg.replica.sweep_period = ms(20);
  ccfg.replica.apply_timeout = ms(250);
  ccfg.replica.server.coalesce_window = ms(2);
  ccfg.replica.server.keepalive = ms(30);
  ccfg.replica.stats = stats;
  ccfg.tuning.view_silence_timeout = ms(120);
  ccfg.tuning.view_ack_timeout = ms(25);
  ccfg.tuning.catchup_timeout = ms(200);
  ccfg.decorate = [seed](TransportPtr t,
                         const std::string& role) -> TransportPtr {
    if (role.find("-rpc") == std::string::npos) return t;
    FaultInjectingTransport::Options fo;
    fo.drop = 0.05;
    fo.seed = (std::hash<std::string>{}(role) ^ seed) | 1;
    return TransportPtr(new FaultInjectingTransport(std::move(t), fo));
  };
  auto cluster = DiscoveryCluster::start(std::move(ccfg)).value();

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(80);
  rpc.retries = 8;
  rpc.backoff = {ms(5), 2.0, ms(40), 0.3};
  rpc.backoff_seed = seed;
  rpc.watch_failover_timeout = ms(250);
  rpc.stats = stats;

  RemoteDiscovery::Options wrpc = rpc;
  wrpc.lease_ttl = ms(400);
  auto writer = cluster->client("heal-wr", wrpc).value();
  ASSERT_TRUE(writer->set_pool("pool.hw", 64).ok());
  ImplInfo hw = offload_info("offload/hw", 50, {{"pool.hw", 1}});
  ImplInfo sw = offload_info("offload/sw", 0);
  ASSERT_TRUE(writer->register_impl(hw).ok());
  ASSERT_TRUE(writer->register_impl(sw).ok());

  auto obs = cluster->client("heal-obs", rpc).value();
  auto w = obs->watch("offload").value();

  auto mk = [&](const std::string& host) {
    RuntimeConfig cfg;
    cfg.host_id = host;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(net, nullptr, host);
    cfg.discovery = cluster->client(host + "-disc", rpc).value();
    cfg.fault_stats = stats;
    cfg.handshake_timeout = ms(500);
    cfg.handshake_retries = 10;
    auto rt = Runtime::create(std::move(cfg)).value();
    EXPECT_TRUE(rt->register_chunnel(std::make_shared<InfoChunnel>(hw)).ok());
    EXPECT_TRUE(rt->register_chunnel(std::make_shared<InfoChunnel>(sw)).ok());
    return rt;
  };
  auto srv_rt = mk("heal-srv");
  auto cli_rt = mk("heal-cli");

  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("offload")))
                      .value()
                      .listen(Addr::mem("heal-srv", 100))
                      .value();
  auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();

  std::vector<std::pair<ConnPtr, ConnPtr>> held;
  auto establish = [&](int i) {
    auto conn = ep.connect(listener->addr(), Deadline::after(seconds(10)));
    ASSERT_TRUE(conn.ok()) << "establishment " << i << " failed: "
                           << conn.error().to_string();
    auto srv = listener->accept(Deadline::after(seconds(10)));
    ASSERT_TRUE(srv.ok());
    EXPECT_EQ(bound_impl(srv.value(), "offload"), "offload/hw")
        << "conn " << i << " degraded instead of riding the recovery";
    ASSERT_TRUE(round_trip(conn.value(), srv.value(), i));
    held.emplace_back(conn.value(), srv.value());
  };

  const int kTotal = 12;
  for (int i = 0; i < kTotal / 3; i++) {
    establish(i);
    if (HasFatalFailure()) return;
  }

  // Fault 1: kill the active sequencer of the partition that admits
  // pool.hw acquires. Establishment's mutation path now depends on the
  // view change; the very next connection must still land within its
  // normal retry budget.
  size_t pool_part = writer->partition_map().index_for_pool("pool.hw");
  size_t kill_part = pool_part;  // where the faults land (pre-reshard)
  cluster->kill_sequencer(pool_part, 0);
  Stopwatch outage;
  establish(kTotal / 3);
  if (HasFatalFailure()) return;
  EXPECT_LT(outage.elapsed(), seconds(1) * kLatencyMult)
      << "view-change unavailability exceeded one establishment budget";

  // Fault 2: kill a replica of the same partition mid-run, keep
  // mutating while it is down, then restart it.
  size_t victim = 2;
  cluster->kill_replica(pool_part, victim);
  for (int i = kTotal / 3 + 1; i < 2 * kTotal / 3; i++) {
    establish(i);
    if (HasFatalFailure()) return;
  }
  ASSERT_TRUE(cluster->restart_replica(pool_part, victim).ok());
  ASSERT_TRUE(cluster->replica(pool_part, victim)->wait_ready(seconds(15)))
      << "restarted replica never finished catch-up";

  // Fault 3 (opt-in; one control-soak CI seed sets BERTHA_SOAK_RESHARD):
  // split the control plane 2 -> 4 live, under the same 5% loss, after
  // the view change and the replica rejoin. Establishments must keep
  // succeeding across the migration and pool.hw admission continues at
  // the pool's re-homed partition.
  const char* soak_reshard = std::getenv("BERTHA_SOAK_RESHARD");
  if (soak_reshard != nullptr && soak_reshard[0] != '\0') {
    ReshardOptions ro;
    ro.ack_timeout = ms(500);
    ro.attempts = 20;
    ro.stats = stats;
    auto coord = ReshardCoordinator::create(*cluster, ro).value();
    auto split = coord->split();
    ASSERT_TRUE(split.ok()) << split.error().to_string();
    ASSERT_EQ(cluster->active_partitions(), 4u);
    pool_part = writer->partition_map().index_for_pool("pool.hw");
  }
  for (int i = 2 * kTotal / 3; i < kTotal; i++) {
    establish(i);
    if (HasFatalFailure()) return;
  }

  // Zero acknowledged loss: every replica of the pool partition —
  // including the restarted one — accounts for every held allocation,
  // and the catalogue/watch-seq are byte-identical across the group.
  Deadline dl = Deadline::after(seconds(10));
  auto settled = [&] {
    auto [e0, s0] = cluster->replica(pool_part, 0)->state()->catalogue_snapshot();
    for (size_t r = 0; r < 3; r++) {
      auto* rep = cluster->replica(pool_part, r);
      if (rep->state()->pool_in_use("pool.hw") !=
          static_cast<uint64_t>(kTotal))
        return false;
      auto [e, s] = rep->state()->catalogue_snapshot();
      if (s != s0 || e.size() != e0.size()) return false;
    }
    return true;
  };
  while (!settled() && !dl.expired()) sleep_for(ms(10));
  EXPECT_TRUE(settled())
      << "replicas diverged or lost acknowledged allocations";

  auto* restarted = cluster->replica(kill_part, victim);
  EXPECT_GE(restarted->catchups(), 1u);
  EXPECT_GE(restarted->current_view(), 1u);
  for (size_t p = 0; p < 2; p++)
    for (size_t r = 0; r < 3; r++)
      EXPECT_EQ(cluster->replica(p, r)->gaps_skipped(), 0u)
          << "p" << p << "-r" << r << " healed by bounded skip";
  for (size_t r = 0; r < 3; r++)
    EXPECT_GE(cluster->replica(kill_part, r)->view_changes(), 1u);

  // The catalogue survived from a fresh client's view, and the watch
  // stream delivered each registration exactly once, by seq — never a
  // snapshot — across the loss, the view change, and the replica kill.
  auto audit = cluster->client("heal-audit", rpc).value();
  auto q = audit->query("offload");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  std::set<std::string> names;
  for (const auto& e : q.value()) names.insert(e.name);
  EXPECT_TRUE(names.count("offload/hw"));
  EXPECT_TRUE(names.count("offload/sw"));

  std::map<std::string, int> seen;
  dl = Deadline::after(seconds(10));
  while (seen.size() < 2 && !dl.expired()) {
    auto ev = w->next(Deadline::after(ms(100)));
    if (!ev.ok()) continue;
    ASSERT_NE(ev.value().kind, WatchKind::impl_unregistered)
        << "spurious lease expiry for " << ev.value().name;
    seen[ev.value().name]++;
  }
  EXPECT_EQ(seen["offload/hw"], 1);
  EXPECT_EQ(seen["offload/sw"], 1);
  EXPECT_EQ(stats->watch_snapshots.load(), 0u);
}

}  // namespace
}  // namespace bertha
