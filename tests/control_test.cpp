// The sharded, replicated discovery control plane (src/control/):
// partition routing, sequenced apply, replica convergence, exactly-once
// mutations across replicas, watch seq-resume across failover, lease
// survival across failover, and the runtime bootstrap path.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/rsm.hpp"
#include "chunnels/shard.hpp"
#include "control/cluster.hpp"
#include "core/wire.hpp"
#include "net/fault.hpp"
#include "sim/simnic.hpp"
#include "util/clock.hpp"
#include "test_helpers.hpp"

namespace bertha {
namespace {

using testing_support::process_threads;

ImplInfo info_of(const std::string& type, const std::string& name,
                 std::vector<ResourceReq> resources = {}) {
  ImplInfo i;
  i.type = type;
  i.name = name;
  i.scope = Scope::host;
  i.endpoints = EndpointConstraint::server;
  i.priority = 1;
  i.resources = std::move(resources);
  return i;
}

BytesView key_of(const std::string& s) {
  return BytesView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::shared_ptr<DefaultTransportFactory> mem_factory(
    const std::shared_ptr<MemNetwork>& net, const std::string& host) {
  return std::make_shared<DefaultTransportFactory>(net, nullptr, host);
}

// Finds two keys (prefix0..prefixN) hashing to different partitions.
std::pair<std::string, std::string> split_keys(const PartitionMap& pm,
                                               const std::string& prefix) {
  std::string first = prefix + "0";
  for (int i = 1; i < 64; i++) {
    std::string k = prefix + std::to_string(i);
    if (pm.index_for_type(k) != pm.index_for_type(first)) return {first, k};
  }
  ADD_FAILURE() << "no split key found for " << prefix;
  return {first, first};
}

// The connect-churn world: a partitions x replicas cluster (query
// frames counted as the replicas receive them), a SimNic advertising
// encrypt/nic with a 2-engine pool, and a server whose chain is
// serialize |> encrypt |> frame |> reliable.
struct ChurnWorld {
  std::shared_ptr<MemNetwork> net = MemNetwork::create();
  std::shared_ptr<std::atomic<uint64_t>> query_frames =
      std::make_shared<std::atomic<uint64_t>>(0);
  std::unique_ptr<DiscoveryCluster> cluster;
  std::shared_ptr<ClusterDiscovery> srv_disc;
  std::unique_ptr<SimNic> nic;
  std::shared_ptr<Runtime> srv_rt, cli_rt;
  std::unique_ptr<Listener> listener;
  const std::vector<std::string> chain{"serialize", "encrypt", "frame",
                                       "reliable"};

  explicit ChurnWorld(size_t replicas, RemoteDiscovery::Options rpc = {}) {
    DiscoveryCluster::Config cfg;
    cfg.partitions = 2;
    cfg.replicas = replicas;
    cfg.transports = mem_factory(net, "ctrl");
    cfg.decorate = [frames = query_frames](TransportPtr t,
                                           const std::string& role) {
      if (role.size() < 4 || role.substr(role.size() - 4) != "-rpc") return t;
      auto* f = new FaultInjectingTransport(std::move(t), {});
      f->set_recv_filter([frames](const Addr&, BytesView p) {
        auto fr = decode_frame(p);
        if (fr.ok() && fr.value().kind == MsgKind::discovery) {
          auto req = decode_request(fr.value().payload);
          if (req.ok() && req.value().op == DiscOp::query) frames->fetch_add(1);
        }
        return false;
      });
      return TransportPtr(f);
    };
    cluster = DiscoveryCluster::start(std::move(cfg)).value();
    srv_disc = cluster->client("churn-srv-disc", rpc).value();
    SimNic::Config nic_cfg;
    nic_cfg.crypto_engines = 2;
    nic = SimNic::create(srv_disc, nic_cfg).value();
    EXPECT_TRUE(nic->advertise_offloads().ok());

    RuntimeConfig scfg;
    scfg.host_id = "churn-srv";
    scfg.transports = mem_factory(net, "churn-srv");
    scfg.discovery = srv_disc;
    srv_rt = Runtime::create(std::move(scfg)).value();
    EXPECT_TRUE(register_builtin_chunnels(*srv_rt).ok());
    RuntimeConfig ccfg;
    ccfg.host_id = "churn-cli";
    ccfg.transports = mem_factory(net, "churn-cli");
    ccfg.discovery = std::make_shared<DiscoveryState>();
    cli_rt = Runtime::create(std::move(ccfg)).value();
    EXPECT_TRUE(register_builtin_chunnels(*cli_rt).ok());

    std::vector<ChunnelSpec> specs;
    for (const auto& t : chain) specs.emplace_back(t);
    listener = srv_rt->endpoint("churn", ChunnelDag::chain(std::move(specs)))
                   .value()
                   .listen(Addr::mem("churn-srv", 100))
                   .value();
  }
  ~ChurnWorld() {
    listener->close();
    srv_rt.reset();
    cli_rt.reset();
    cluster->stop();
  }

  Result<ConnPtr> connect() {
    return cli_rt->endpoint("churn-cli", ChunnelDag::empty())
        .value()
        .connect(listener->addr(), Deadline::after(seconds(10)));
  }
};

std::string bound_impl(const ConnPtr& conn, const std::string& type) {
  auto* t = dynamic_cast<TransitionableConnection*>(conn.get());
  if (!t) return "";
  for (const auto& n : t->chain())
    if (n.type == type) return n.impl_name;
  return "";
}

// --- PartitionMap ---

TEST(PartitionMapTest, AgreesWithShardHashAndRoutesOps) {
  PartitionMap pm(4);
  for (const std::string t : {"offload", "reliable", "shard", "ordered_mcast",
                              "serialize", "pool.hw"}) {
    EXPECT_EQ(pm.index_for_type(t), shard_pick(key_of(t), 4)) << t;
    EXPECT_EQ(pm.index_for_pool(t), pm.index_for_type(t)) << t;
    EXPECT_LT(pm.index_for_type(t), 4u);
  }
  // Single partition: everything maps to 0 (and shard_pick agrees).
  PartitionMap one(1);
  EXPECT_EQ(one.index_for_type("anything"), 0u);

  // Allocation ids carry their partition in the high bits.
  uint64_t id = (uint64_t{3} << DiscoveryState::kAllocNamespaceShift) | 17;
  EXPECT_EQ(PartitionMap::index_for_alloc(id), 3u);

  DiscRequest reg;
  reg.op = DiscOp::register_impl;
  reg.entry = info_of("offload", "offload/hw");
  auto reg_idx = pm.index_for_request(reg);
  ASSERT_TRUE(reg_idx.ok());
  EXPECT_EQ(reg_idx.value(), pm.index_for_type("offload"));

  // A multi-pool acquire is routable only when every pool co-locates.
  auto [pa, pb] = split_keys(pm, "pool.split");
  DiscRequest acq;
  acq.op = DiscOp::acquire;
  acq.resources = {{pa, 1}, {pb, 1}};
  auto split = pm.index_for_request(acq);
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.error().code, Errc::invalid_argument);
  acq.resources = {{pa, 1}, {pa, 2}};
  ASSERT_TRUE(pm.index_for_request(acq).ok());

  // Release routes by id namespace; out-of-range ids are rejected.
  DiscRequest rel;
  rel.op = DiscOp::release;
  rel.alloc_id = (uint64_t{9} << DiscoveryState::kAllocNamespaceShift) | 1;
  EXPECT_FALSE(pm.index_for_request(rel).ok());
}

// --- SequencedApplyWindow ---

TEST(SequencedApplyWindowTest, ReleasesInOrderAcrossGapsAndDuplicates) {
  SequencedApplyWindow w;
  auto seqs = [](const std::vector<std::pair<uint64_t, Bytes>>& v) {
    std::vector<uint64_t> out;
    for (const auto& [s, b] : v) out.push_back(s);
    return out;
  };

  EXPECT_EQ(seqs(w.offer(0, to_bytes("a"))), (std::vector<uint64_t>{0}));
  // Gap: 2 buffers behind missing 1.
  EXPECT_TRUE(w.offer(2, to_bytes("c")).empty());
  EXPECT_TRUE(w.has_gap());
  EXPECT_EQ(w.next_seq(), 1u);
  EXPECT_EQ(w.gap_end(), 2u);
  // Duplicates of buffered and already-released seqs are dropped.
  EXPECT_TRUE(w.offer(2, to_bytes("c-dup")).empty());
  EXPECT_TRUE(w.offer(0, to_bytes("a-dup")).empty());
  EXPECT_EQ(w.buffered(), 1u);
  // Filling the gap releases the whole run.
  EXPECT_EQ(seqs(w.offer(1, to_bytes("b"))), (std::vector<uint64_t>{1, 2}));
  EXPECT_FALSE(w.has_gap());

  // Abandoning a gap releases what is contiguous beyond it.
  EXPECT_TRUE(w.offer(5, to_bytes("f")).empty());
  EXPECT_TRUE(w.offer(6, to_bytes("g")).empty());
  EXPECT_EQ(seqs(w.skip_to(5)), (std::vector<uint64_t>{5, 6}));
  EXPECT_EQ(w.next_seq(), 7u);
  // skip_to never rewinds.
  EXPECT_TRUE(w.skip_to(3).empty());
  EXPECT_EQ(w.next_seq(), 7u);
}

// --- Cluster routing ---

TEST(ControlTest, ShardedClusterRoutesRegistrationsQueriesAndPools) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 1;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  auto client = cluster->client("c0").value();

  const PartitionMap& pm = client->partition_map();
  auto [t0, t1] = split_keys(pm, "type");
  ASSERT_TRUE(client->register_impl(info_of(t0, t0 + "/x")).ok());
  ASSERT_TRUE(client->register_impl(info_of(t1, t1 + "/y")).ok());

  // Queries route back to the owning partition.
  auto q0 = client->query(t0);
  ASSERT_TRUE(q0.ok());
  ASSERT_EQ(q0.value().size(), 1u);
  EXPECT_EQ(q0.value()[0].name, t0 + "/x");
  ASSERT_TRUE(client->query(t1).ok());

  // And the entries physically live on exactly one partition's replicas.
  size_t p0 = pm.index_for_type(t0);
  EXPECT_EQ(cluster->replica(p0, 0)->state()->query(t0).value().size(), 1u);
  EXPECT_TRUE(cluster->replica(1 - p0, 0)->state()->query(t0).value().empty());

  // Pools: capacity, admission, and id-routed release.
  auto [pa, pb] = split_keys(pm, "pool.q");
  ASSERT_TRUE(client->set_pool(pa, 2).ok());
  ASSERT_TRUE(client->set_pool(pb, 2).ok());
  auto a = client->acquire({{pa, 1}});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(PartitionMap::index_for_alloc(a.value()), pm.index_for_pool(pa))
      << "alloc id not namespaced by its partition";
  auto b = client->acquire({{pb, 2}});
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());

  // Cross-partition admission is refused, not half-applied.
  auto cross = client->acquire({{pa, 1}, {pb, 1}});
  ASSERT_FALSE(cross.ok());
  EXPECT_EQ(cross.error().code, Errc::invalid_argument);
  EXPECT_EQ(cluster->replica(pm.index_for_pool(pa), 0)->state()->pool_in_use(pa),
            1u);

  ASSERT_TRUE(client->release(a.value()).ok());
  ASSERT_TRUE(client->release(b.value()).ok());
  EXPECT_FALSE(
      client->release(uint64_t{9} << DiscoveryState::kAllocNamespaceShift)
          .ok());
  EXPECT_EQ(cluster->replica(pm.index_for_pool(pa), 0)->state()->pool_in_use(pa),
            0u);
}

// Paper §5's connect price: hello/accept plus one catalogue read. The
// read is one query frame per partition that owns a chain type, not one
// per chain node: the churn chain's four types live on two partitions.
TEST(ControlTest, ConnectReadsTheCatalogueInOneFramePerPartition) {
  ChurnWorld w(/*replicas=*/3);
  const PartitionMap& pm = w.srv_disc->partition_map();
  std::set<size_t> owners;
  for (const auto& t : w.chain) owners.insert(pm.index_for_type(t));
  ASSERT_EQ(owners.size(), 2u) << "the chain no longer spans both partitions";

  // Warm up (first-use setup is not the steady-state price).
  { ASSERT_TRUE(w.connect().ok()); }
  uint64_t before = w.query_frames->load();
  auto conn = w.connect();
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  EXPECT_EQ(w.query_frames->load() - before, owners.size());
  EXPECT_EQ(bound_impl(conn.value(), "encrypt"), "encrypt/nic");
}

// A dead partition fails only the types it owns: the live partition's
// types still bind their network entries (the NIC's encrypt engine), and
// the connection is marked degraded for the rest.
TEST(ControlTest, DeadPartitionDegradesOnlyItsOwnTypes) {
  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(30);
  rpc.retries = 1;
  ChurnWorld w(/*replicas=*/1, rpc);
  const PartitionMap& pm = w.srv_disc->partition_map();
  size_t live = pm.index_for_type("encrypt");
  ASSERT_EQ(pm.index_for_pool(w.nic->crypto_pool()), live);
  w.cluster->kill_replica(1 - live, 0);

  auto outcomes = w.srv_disc->query_many(w.chain);
  ASSERT_EQ(outcomes.size(), w.chain.size());
  for (size_t i = 0; i < w.chain.size(); i++) {
    bool owned_by_live = pm.index_for_type(w.chain[i]) == live;
    EXPECT_EQ(outcomes[i].ok(), owned_by_live) << w.chain[i];
  }
  bool saw_nic = false;
  for (const auto& e : outcomes[1].value()) saw_nic |= e.name == "encrypt/nic";
  EXPECT_TRUE(saw_nic);

  auto conn = w.connect();
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  EXPECT_EQ(bound_impl(conn.value(), "encrypt"), "encrypt/nic");
  EXPECT_EQ(w.listener->degraded_connections(), 1u);
}

TEST(ControlTest, EmptyFilterWatchFansInAllPartitions) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 1;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.server.coalesce_window = ms(2);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  auto obs = cluster->client("obs").value();
  auto writer = cluster->client("wr").value();

  auto w = obs->watch("").value();
  auto [t0, t1] = split_keys(obs->partition_map(), "fan");
  ASSERT_TRUE(writer->register_impl(info_of(t0, t0 + "/a")).ok());
  ASSERT_TRUE(writer->register_impl(info_of(t1, t1 + "/b")).ok());

  std::set<std::string> seen;
  uint64_t last_seq = 0;
  Deadline dl = Deadline::after(seconds(10));
  while (seen.size() < 2 && !dl.expired()) {
    auto ev = w->next(Deadline::after(ms(100)));
    if (!ev.ok()) continue;
    // The fan-in re-stamps a single strictly-increasing seq domain.
    EXPECT_GT(ev.value().seq, last_seq);
    last_seq = ev.value().seq;
    seen.insert(ev.value().name);
  }
  EXPECT_TRUE(seen.count(t0 + "/a"));
  EXPECT_TRUE(seen.count(t1 + "/b"));
}

// Each partition client's reader thread relays its stream into the
// merged watcher inline: more catalogue-wide watches add no threads.
TEST(ControlTest, FanInWatchesAddNoThreads) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 1;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.server.coalesce_window = ms(2);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  auto obs = cluster->client("obs").value();
  auto writer = cluster->client("wr").value();

  // Baseline after the first watch: the engine it runs on already exists.
  std::vector<WatcherPtr> ws{obs->watch("").value()};
  int before = process_threads();
  for (int i = 0; i < 16; i++) ws.push_back(obs->watch("").value());
  EXPECT_EQ(process_threads(), before);

  auto [t0, t1] = split_keys(obs->partition_map(), "fan");
  ASSERT_TRUE(writer->register_impl(info_of(t0, t0 + "/a")).ok());
  ASSERT_TRUE(writer->register_impl(info_of(t1, t1 + "/b")).ok());
  for (auto& w : ws) {
    std::set<std::string> seen;
    Deadline dl = Deadline::after(seconds(5));
    while (seen.size() < 2 && !dl.expired()) {
      auto ev = w->next(Deadline::after(ms(100)));
      if (ev.ok()) seen.insert(ev.value().name);
    }
    EXPECT_TRUE(seen.count(t0 + "/a") && seen.count(t1 + "/b"));
  }
}

// Cancelling the merged watcher cancels its per-partition upstreams, and
// their clients unsubscribe from every partition's server.
TEST(ControlTest, CancelledFanInWatchUnsubscribesUpstreams) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 2;
  cfg.replicas = 1;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.server.keepalive = ms(20);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  auto obs = cluster->client("obs").value();
  auto subscribers = [&] {
    return cluster->replica(0, 0)->server().subscriber_count() +
           cluster->replica(1, 0)->server().subscriber_count();
  };

  auto w = obs->watch("").value();
  EXPECT_EQ(subscribers(), 2u);
  w->cancel();
  Deadline dl = Deadline::after(seconds(5));
  while (subscribers() > 0 && !dl.expired()) sleep_for(ms(5));
  EXPECT_EQ(subscribers(), 0u) << "upstream subscriptions outlived the merge";
}

// A replica's sweep proposer and its server's push rounds and keepalives
// are wheel entries, and the sequencer and the partition client's reader
// are process_reactor() handlers: per replica only the member loop and
// the serve loop own threads.
TEST(ControlTest, ReplicaThreadsAreMemberAndServeOnly) {
  (void)process_wheel();
  (void)process_reactor();
  int before = process_threads();
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  cfg.replica.server.keepalive = ms(20);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  // Push is live: a watch stream and a leased registration exercise
  // the push round, keepalives and replicated sweeps.
  RemoteDiscovery::Options rpc;
  rpc.lease_ttl = ms(200);
  auto client = cluster->client("c0", rpc).value();
  auto w = client->watch("offload").value();
  ASSERT_TRUE(client->register_impl(info_of("offload", "o/x")).ok());
  ASSERT_TRUE(w->next(Deadline::after(seconds(2))).ok());
  EXPECT_EQ(process_threads() - before, 3 * 2);
  EXPECT_GT(cluster->replica(0, 0)->server().batches_pushed(), 0u);
}

// --- Replication ---

TEST(ControlTest, ReplicasApplyIdenticallyAndConverge) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  auto client = cluster->client("c0").value();

  ASSERT_TRUE(client->set_pool("pool.c", 4).ok());
  for (int i = 0; i < 8; i++)
    ASSERT_TRUE(
        client->register_impl(info_of("offload", "o" + std::to_string(i)))
            .ok());
  auto a = client->acquire({{"pool.c", 2}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(client->unregister_impl("offload", "o7").ok());

  // Every replica converges to the identical catalogue, pool accounting
  // AND watch seq (the invariant seq-resume failover rests on).
  auto converged = [&] {
    auto [e0, s0] = cluster->replica(0, 0)->state()->catalogue_snapshot();
    for (size_t r = 1; r < 3; r++) {
      auto [e, s] = cluster->replica(0, r)->state()->catalogue_snapshot();
      if (s != s0 || e.size() != e0.size()) return false;
      if (cluster->replica(0, r)->state()->pool_in_use("pool.c") != 2)
        return false;
    }
    return e0.size() == 7;
  };
  Deadline dl = Deadline::after(seconds(10));
  while (!converged() && !dl.expired()) sleep_for(ms(10));
  EXPECT_TRUE(converged()) << "replicas diverged";
  for (size_t r = 0; r < 3; r++) {
    EXPECT_EQ(cluster->replica(0, r)->state()->live_allocs(), 1u);
    EXPECT_EQ(cluster->replica(0, r)->gaps_skipped(), 0u);
  }
}

TEST(ControlTest, RetriedMutationLandingOnAnotherReplicaExecutesOnce) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  auto client = cluster->client("c0").value();
  ASSERT_TRUE(client->set_pool("pool.d", 4).ok());

  // The failover-retry shape, driven at the protocol level: the same
  // idempotent mutation submitted to TWO different replicas (as a client
  // whose first response was lost would after rotating). The replicated
  // dedup cache must return the recorded response, not execute twice.
  DiscRequest req;
  req.op = DiscOp::acquire;
  req.resources = {{"pool.d", 1}};
  req.client_id = "retry-client";
  req.idem_key = 99;
  Bytes body = encode_request(req);

  auto raw = net->bind(Addr::mem("raw-cli", 0)).value();
  auto submit_to = [&](const Addr& server) -> uint64_t {
    EXPECT_TRUE(
        raw->send_to(server, encode_frame(MsgKind::discovery, 1, body)).ok());
    auto pkt = raw->recv(Deadline::after(seconds(5)));
    EXPECT_TRUE(pkt.ok());
    auto frame = decode_frame(pkt.value().payload);
    EXPECT_TRUE(frame.ok());
    auto rsp = decode_response(frame.value().payload);
    EXPECT_TRUE(rsp.ok() && rsp.value().success);
    return rsp.ok() ? rsp.value().alloc_id : 0;
  };
  uint64_t first = submit_to(cluster->partition_servers(0)[0]);
  uint64_t second = submit_to(cluster->partition_servers(0)[1]);
  EXPECT_EQ(first, second) << "retry re-executed instead of deduping";
  ASSERT_NE(first, 0u);

  uint64_t hits = 0;
  for (size_t r = 0; r < 3; r++)
    hits += cluster->replica(0, r)->replicated_dedup_hits();
  EXPECT_GE(hits, 1u);
  Deadline dl = Deadline::after(seconds(5));
  auto settled = [&] {
    for (size_t r = 0; r < 3; r++)
      if (cluster->replica(0, r)->state()->pool_in_use("pool.d") != 1)
        return false;
    return true;
  };
  while (!settled() && !dl.expired()) sleep_for(ms(10));
  EXPECT_TRUE(settled()) << "duplicate execution leaked pool capacity";
}

// --- Failover ---

TEST(ControlTest, WatchStreamResumesAcrossReplicaFailoverWithoutSnapshot) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.server.coalesce_window = ms(2);
  cfg.replica.server.keepalive = ms(25);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  auto stats = std::make_shared<FaultStats>();
  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(60);
  rpc.retries = 5;
  rpc.watch_failover_timeout = ms(150);  // >> keepalive
  rpc.stats = stats;
  auto obs = cluster->client("obs", rpc).value();
  auto writer = cluster->client("wr").value();

  auto w = obs->watch("offload").value();
  std::map<std::string, int> seen;
  uint64_t last_seq = 0;
  auto expect_events = [&](int upto) {
    Deadline dl = Deadline::after(seconds(10));
    while (static_cast<int>(seen.size()) < upto && !dl.expired()) {
      auto ev = w->next(Deadline::after(ms(100)));
      if (!ev.ok()) continue;
      EXPECT_GT(ev.value().seq, last_seq)
          << "replicated watch seq went backwards across failover";
      last_seq = ev.value().seq;
      seen[ev.value().name]++;
    }
    EXPECT_EQ(static_cast<int>(seen.size()), upto);
    for (const auto& [name, n] : seen)
      EXPECT_EQ(n, 1) << name << " duplicated";
  };

  for (int i = 0; i < 3; i++)
    ASSERT_TRUE(
        writer->register_impl(info_of("offload", "pre" + std::to_string(i)))
            .ok());
  expect_events(3);

  // Kill the replica pushing the observer's stream. The observer issues
  // no RPCs, so only the push-silence watchdog can notice.
  Addr active = obs->partition_client(0).active_server();
  const auto& servers = cluster->partition_servers(0);
  size_t victim = 0;
  for (size_t r = 0; r < servers.size(); r++)
    if (servers[r] == active) victim = r;
  cluster->kill_replica(0, victim);

  for (int i = 0; i < 3; i++)
    ASSERT_TRUE(
        writer->register_impl(info_of("offload", "post" + std::to_string(i)))
            .ok());
  expect_events(6);
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(seen.count("pre" + std::to_string(i)));
    EXPECT_TRUE(seen.count("post" + std::to_string(i)));
  }

  EXPECT_GE(obs->server_failovers(), 1u) << "watchdog never rotated";
  EXPECT_GE(stats->watch_resubscribes.load(), 1u);
  // The resume was served from the new replica's replicated event log by
  // seq alone — never the snapshot fallback.
  EXPECT_EQ(stats->watch_snapshots.load(), 0u);
  for (size_t r = 0; r < 3; r++)
    if (cluster->alive(0, r)) {
      EXPECT_EQ(cluster->replica(0, r)->server().snapshots_served(), 0u);
    }
}

TEST(ControlTest, LeasesSurviveReplicaFailoverWithoutSpuriousExpiry) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(25);
  cfg.replica.server.coalesce_window = ms(2);
  cfg.replica.server.keepalive = ms(25);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  // The observer needs the push-silence watchdog too: its stream may be
  // attached to the replica we kill.
  RemoteDiscovery::Options orpc;
  orpc.rpc_timeout = ms(60);
  orpc.retries = 5;
  orpc.watch_failover_timeout = ms(150);
  auto obs = cluster->client("obs", orpc).value();
  auto w = obs->watch("offload").value();

  RemoteDiscovery::Options wrpc;
  wrpc.rpc_timeout = ms(60);
  wrpc.retries = 5;
  wrpc.lease_ttl = ms(250);  // heartbeat every ~62ms
  auto writer = cluster->client("wr", wrpc).value();
  ASSERT_TRUE(writer->register_impl(info_of("offload", "leased/hw")).ok());

  // Wait for the registration to be visible.
  Deadline dl = Deadline::after(seconds(5));
  bool registered = false;
  while (!registered && !dl.expired()) {
    auto ev = w->next(Deadline::after(ms(100)));
    registered = ev.ok() && ev.value().kind == WatchKind::impl_registered;
  }
  ASSERT_TRUE(registered);

  // Kill the replica the writer heartbeats into. The next heartbeat
  // times out, rotates, and lands on a live replica — replicated, so
  // every replica's lease table stays renewed and NO replica's sweep
  // reaps the owner.
  Addr active = writer->partition_client(0).active_server();
  const auto& servers = cluster->partition_servers(0);
  size_t victim = 0;
  for (size_t r = 0; r < servers.size(); r++)
    if (servers[r] == active) victim = r;
  cluster->kill_replica(0, victim);

  // Watch for spurious expiry across several TTL windows (>> the one
  // sweep interval the failover is allowed to straddle).
  Deadline quiet = Deadline::after(ms(800));
  while (!quiet.expired()) {
    auto ev = w->try_next();
    if (ev && ev->kind == WatchKind::impl_unregistered)
      FAIL() << "lease expired spuriously during failover: " << ev->name;
    sleep_for(ms(10));
  }
  for (size_t r = 0; r < 3; r++)
    if (cluster->alive(0, r)) {
      EXPECT_EQ(cluster->replica(0, r)->state()->query("offload").value().size(),
                1u);
      EXPECT_EQ(cluster->replica(0, r)->state()->lease_count(), 1u);
    }

  // Now stop heartbeating (drop the writer): the lease must expire
  // exactly once, via the replicated sweep.
  writer.reset();
  dl = Deadline::after(seconds(5));
  int expiries = 0;
  while (!dl.expired()) {
    auto ev = w->next(Deadline::after(ms(100)));
    if (ev.ok() && ev.value().kind == WatchKind::impl_unregistered &&
        ev.value().name == "leased/hw")
      expiries++;
  }
  EXPECT_EQ(expiries, 1);
  for (size_t r = 0; r < 3; r++)
    if (cluster->alive(0, r)) {
      EXPECT_TRUE(
          cluster->replica(0, r)->state()->query("offload").value().empty());
      EXPECT_EQ(cluster->replica(0, r)->state()->lease_count(), 0u);
    }
}

// --- Self-healing: catch-up, view change, gap-miss, membership ---

TEST(ControlRecoveryTest, RestartedReplicaCatchesUpFromPeerSnapshot) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  cfg.replica.server.coalesce_window = ms(2);
  cfg.replica.server.keepalive = ms(25);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  auto stats = std::make_shared<FaultStats>();
  RemoteDiscovery::Options orpc;
  orpc.rpc_timeout = ms(60);
  orpc.retries = 5;
  orpc.watch_failover_timeout = ms(150);
  orpc.stats = stats;
  auto obs = cluster->client("obs", orpc).value();
  auto w = obs->watch("offload").value();

  RemoteDiscovery::Options wrpc;
  wrpc.rpc_timeout = ms(60);
  wrpc.retries = 5;
  auto writer = cluster->client("wr", wrpc).value();
  ASSERT_TRUE(writer->set_pool("pool.r", 4).ok());
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(
        writer->register_impl(info_of("offload", "pre" + std::to_string(i)))
            .ok());
  auto alloc = writer->acquire({{"pool.r", 2}});
  ASSERT_TRUE(alloc.ok());

  // Kill one replica, mutate while it is down, then restart it: the
  // rejoin must come back through a peer snapshot + sequenced suffix,
  // not from an assumed-empty partition and not via bounded skips.
  cluster->kill_replica(0, 2);
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(
        writer->register_impl(info_of("offload", "post" + std::to_string(i)))
            .ok());
  ASSERT_TRUE(cluster->restart_replica(0, 2).ok());
  ASSERT_TRUE(cluster->replica(0, 2)->wait_ready(seconds(10)))
      << "restarted replica never installed a snapshot";

  auto converged = [&] {
    auto [e0, s0] = cluster->replica(0, 0)->state()->catalogue_snapshot();
    for (size_t r = 1; r < 3; r++) {
      auto [e, s] = cluster->replica(0, r)->state()->catalogue_snapshot();
      if (s != s0 || e.size() != e0.size()) return false;
      if (cluster->replica(0, r)->state()->pool_in_use("pool.r") != 2)
        return false;
    }
    return e0.size() == 10;
  };
  Deadline dl = Deadline::after(seconds(10));
  while (!converged() && !dl.expired()) sleep_for(ms(10));
  EXPECT_TRUE(converged()) << "restarted replica diverged";
  EXPECT_GE(cluster->replica(0, 2)->catchups(), 1u);
  EXPECT_EQ(cluster->replica(0, 2)->gaps_skipped(), 0u)
      << "catch-up must replace bounded skips";
  // The lease table transferred too: the writer's lease is live on the
  // restarted replica (not re-granted, not missing).
  EXPECT_EQ(cluster->replica(0, 2)->state()->lease_count(),
            cluster->replica(0, 0)->state()->lease_count());

  // The restarted replica can serve a seq-resumed watch stream: kill
  // the other two and push one more registration through it.
  cluster->kill_replica(0, 0);
  cluster->kill_replica(0, 1);
  ASSERT_TRUE(writer->register_impl(info_of("offload", "after/x")).ok());
  bool seen_after = false;
  dl = Deadline::after(seconds(10));
  uint64_t last_seq = 0;
  while (!seen_after && !dl.expired()) {
    auto ev = w->next(Deadline::after(ms(100)));
    if (!ev.ok()) continue;
    EXPECT_GT(ev.value().seq, last_seq) << "watch seq regressed";
    last_seq = ev.value().seq;
    seen_after = ev.value().name == "after/x";
  }
  EXPECT_TRUE(seen_after);
  // Resume came from the transferred event log by seq — no snapshot.
  EXPECT_EQ(stats->watch_snapshots.load(), 0u);
}

TEST(ControlRecoveryTest, SequencerKillTriggersViewChangeAndServiceResumes) {
  auto net = MemNetwork::create();
  auto stats = std::make_shared<FaultStats>();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.sequencer_candidates = 2;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(15);
  cfg.replica.stats = stats;
  cfg.tuning.view_silence_timeout = ms(100);
  cfg.tuning.view_ack_timeout = ms(25);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(250);
  rpc.retries = 6;
  auto client = cluster->client("c0", rpc).value();
  for (int i = 0; i < 3; i++)
    ASSERT_TRUE(
        client->register_impl(info_of("offload", "pre" + std::to_string(i)))
            .ok());
  EXPECT_TRUE(cluster->sequencer_at(0, 1) != nullptr &&
              !cluster->sequencer_at(0, 1)->active())
      << "candidate 1 must start standing by";

  // Kill the active (view-0) sequencer: replicas detect silence, agree
  // on view 1, and the standby takes over at the agreed seq. A mutation
  // issued immediately afterwards must land within its retry budget.
  cluster->kill_sequencer(0, 0);
  Stopwatch sw;
  ASSERT_TRUE(client->register_impl(info_of("offload", "during/x")).ok());
  EXPECT_LT(sw.elapsed(), seconds(2)) << "view change took too long";

  for (int i = 0; i < 3; i++)
    ASSERT_TRUE(
        client->register_impl(info_of("offload", "post" + std::to_string(i)))
            .ok());

  auto converged = [&] {
    auto [e0, s0] = cluster->replica(0, 0)->state()->catalogue_snapshot();
    for (size_t r = 1; r < 3; r++) {
      auto [e, s] = cluster->replica(0, r)->state()->catalogue_snapshot();
      if (s != s0 || e.size() != e0.size()) return false;
    }
    return e0.size() == 7;
  };
  Deadline dl = Deadline::after(seconds(10));
  while (!converged() && !dl.expired()) sleep_for(ms(10));
  EXPECT_TRUE(converged()) << "replicas diverged across the view change";

  EXPECT_TRUE(cluster->sequencer_at(0, 1)->active());
  EXPECT_GE(cluster->sequencer_at(0, 1)->view(), 1u);
  for (size_t r = 0; r < 3; r++) {
    EXPECT_GE(cluster->replica(0, r)->current_view(), 1u);
    EXPECT_GE(cluster->replica(0, r)->view_changes(), 1u);
    EXPECT_EQ(cluster->replica(0, r)->gaps_skipped(), 0u);
  }
  EXPECT_GE(stats->view_changes.load(), 3u);  // ctrl.view_change counter

  // Exactly-once across the change: every registration exists once on
  // every replica (re-proposals were absorbed by the applied-ids set).
  for (size_t r = 0; r < 3; r++) {
    auto entries = cluster->replica(0, r)->state()->query("offload").value();
    std::set<std::string> names;
    for (const auto& e : entries) names.insert(e.name);
    EXPECT_EQ(names.size(), entries.size()) << "duplicate applies";
  }
}

TEST(ControlRecoveryTest, EvictedGapTriggersCatchupNotSkip) {
  auto net = MemNetwork::create();
  auto stats = std::make_shared<FaultStats>();
  // Tiny sequencer resend log: a replica that falls behind by more than
  // 4 seqs can no longer be healed by retransmission.
  //
  // r2 is deafened where its datagrams are delivered: the sequencer drops
  // what it sends to r2's member endpoint while `deaf` is set. A partition
  // on r2's own receive side would act only when r2's member loop reads,
  // so a loop that fell behind would drain the "lost" ops after the heal
  // and no gap would form.
  FaultInjectingTransport* seq = nullptr;
  std::atomic<bool> deaf{false};
  const Addr r2_member = Addr::mem("ctrl-p0-r2", 2);
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = Duration::zero();  // only explicit ops
  cfg.replica.gap_timeout = ms(30);
  cfg.replica.stats = stats;
  cfg.tuning.sequencer_resend_log = 4;
  cfg.decorate = [&](TransportPtr t, const std::string& role) -> TransportPtr {
    if (role != "ctrl-p0-seq") return t;
    auto* ft = new FaultInjectingTransport(std::move(t),
                                           FaultInjectingTransport::Options{});
    ft->set_send_filter([&deaf, r2_member](const Addr& dst, BytesView) {
      return deaf.load() && dst == r2_member;
    });
    seq = ft;
    return TransportPtr(ft);
  };
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();
  ASSERT_NE(seq, nullptr);
  ASSERT_EQ(cluster->replica(0, 2)->member_addr(), r2_member);

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(100);
  rpc.retries = 5;
  auto client = cluster->client("c0", rpc).value();
  ASSERT_TRUE(client->register_impl(info_of("offload", "seed/x")).ok());

  // Deafen r2, push far more ops than the resend log holds, then heal:
  // r2's fetch for the lost prefix comes back as a miss and must be
  // answered by a peer snapshot — never by a bounded skip.
  deaf.store(true);
  for (int i = 0; i < 24; i++)
    ASSERT_TRUE(
        client->register_impl(info_of("offload", "o" + std::to_string(i)))
            .ok());
  deaf.store(false);
  EXPECT_GE(seq->counters().tx_dropped, 20u) << "r2 was never deafened";
  // One more sequenced op exposes the gap to r2.
  ASSERT_TRUE(client->register_impl(info_of("offload", "tail/x")).ok());

  auto converged = [&] {
    auto [e0, s0] = cluster->replica(0, 0)->state()->catalogue_snapshot();
    auto [e2, s2] = cluster->replica(0, 2)->state()->catalogue_snapshot();
    return s2 == s0 && e2.size() == e0.size() && e0.size() == 26;
  };
  // A catch-up installs the peer's state before it counts itself, so
  // wait for the count too.
  auto caught_up = [&] { return cluster->replica(0, 2)->catchups() >= 1; };
  Deadline dl = Deadline::after(seconds(10));
  while (!(converged() && caught_up()) && !dl.expired()) sleep_for(ms(10));
  EXPECT_TRUE(converged()) << "deafened replica never caught up";
  EXPECT_GE(cluster->replica(0, 2)->gap_misses(), 1u);
  EXPECT_GE(cluster->replica(0, 2)->catchups(), 1u);
  EXPECT_EQ(cluster->replica(0, 2)->gaps_skipped(), 0u)
      << "evicted range must heal via peer catch-up, not skip";
  EXPECT_GE(stats->gap_misses.load(), 1u);  // ctrl.gap_miss counter
  EXPECT_GE(stats->catchups.load(), 1u);    // ctrl.catchup counter
}

TEST(ControlRecoveryTest, TightenedWatchdogDetectsPushSilenceFaster) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 3;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.server.coalesce_window = ms(2);
  cfg.replica.server.keepalive = ms(25);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  // Same failover threshold, two watchdog cadences: the control knob
  // under test. The slow client's poll period dominates its detection
  // latency; the fast client is bounded by threshold + one tick.
  auto make_obs = [&](const std::string& id, Duration watchdog) {
    RemoteDiscovery::Options rpc;
    rpc.rpc_timeout = ms(60);
    rpc.retries = 5;
    rpc.watch_failover_timeout = ms(120);
    rpc.watchdog_interval = watchdog;
    return cluster->client(id, rpc).value();
  };
  auto slow = make_obs("slow", ms(900));
  auto fast = make_obs("fast", ms(25));
  auto ws = slow->watch("offload").value();
  auto wf = fast->watch("offload").value();

  auto writer = cluster->client("wr").value();
  ASSERT_TRUE(writer->register_impl(info_of("offload", "w/x")).ok());
  auto wait_event = [](WatcherPtr& w) {
    auto ev = w->next(Deadline::after(seconds(5)));
    ASSERT_TRUE(ev.ok()) << "stream never started";
  };
  wait_event(ws);
  wait_event(wf);

  // Kill each observer's push source promptly after client creation so
  // the slow watchdog's first post-kill tick is most of its period away.
  std::set<size_t> victims;
  for (auto* obs : {slow.get(), fast.get()}) {
    Addr active = obs->partition_client(0).active_server();
    auto servers = cluster->partition_servers(0);
    for (size_t r = 0; r < servers.size(); r++)
      if (servers[r] == active) victims.insert(r);
  }
  ASSERT_LT(victims.size(), 3u) << "need one surviving replica";
  for (size_t v : victims) cluster->kill_replica(0, v);

  Stopwatch sw;
  Duration fast_detect = Duration::zero(), slow_detect = Duration::zero();
  Deadline dl = Deadline::after(seconds(5));
  while ((fast_detect == Duration::zero() ||
          slow_detect == Duration::zero()) &&
         !dl.expired()) {
    if (fast_detect == Duration::zero() && fast->server_failovers() >= 1)
      fast_detect = sw.elapsed();
    if (slow_detect == Duration::zero() && slow->server_failovers() >= 1)
      slow_detect = sw.elapsed();
    sleep_for(ms(5));
  }
  ASSERT_NE(fast_detect, Duration::zero()) << "fast watchdog never rotated";
  ASSERT_NE(slow_detect, Duration::zero()) << "slow watchdog never rotated";
  EXPECT_LT(fast_detect, slow_detect)
      << "tightened watchdog_interval must speed up detection";
}

TEST(ControlRecoveryTest, MembershipEpochAddsReplicaAndResteersClients) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 2;
  cfg.transports = mem_factory(net, "ctrl");
  cfg.replica.sweep_period = ms(20);
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  RemoteDiscovery::Options rpc;
  rpc.rpc_timeout = ms(60);
  rpc.retries = 6;
  auto client = cluster->client("c0", rpc).value();
  ASSERT_TRUE(client->register_impl(info_of("offload", "m/x")).ok());

  // Epoch 1 is the boot config, adopted when the client was minted;
  // applying it again is a stale no-op.
  ClusterMembership m1 = cluster->membership();
  EXPECT_EQ(m1.epoch, 1u);
  EXPECT_EQ(client->partition_map().epoch(), 1u);
  auto stale = client->apply_membership(m1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, Errc::already_exists);

  // Grow the partition online: the joiner catches up from its peers and
  // the bumped epoch steers the client at three replicas.
  auto added = cluster->add_replica(0);
  ASSERT_TRUE(added.ok()) << added.error().to_string();
  EXPECT_EQ(added.value(), 2u);
  ASSERT_TRUE(cluster->replica(0, 2)->wait_ready(seconds(10)));
  ClusterMembership m2 = cluster->membership();
  EXPECT_EQ(m2.epoch, 2u);
  EXPECT_EQ(m2.partitions[0].size(), 3u);
  ASSERT_TRUE(client->apply_membership(m2).ok());
  EXPECT_EQ(client->partition_client(0).server_count(), 3u);
  EXPECT_EQ(client->partition_map().replicas(0).size(), 3u);

  // Wait for the joiner to fully converge, then retire the two original
  // replicas: the client must keep answering from the added one.
  auto caught_up = [&] {
    auto [e0, s0] = cluster->replica(0, 0)->state()->catalogue_snapshot();
    auto [e2, s2] = cluster->replica(0, 2)->state()->catalogue_snapshot();
    return s2 == s0 && e2.size() == e0.size();
  };
  Deadline dl = Deadline::after(seconds(10));
  while (!caught_up() && !dl.expired()) sleep_for(ms(10));
  ASSERT_TRUE(caught_up());
  EXPECT_GE(cluster->replica(0, 2)->catchups(), 1u);

  cluster->kill_replica(0, 0);
  cluster->kill_replica(0, 1);
  auto q = client->query("offload");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  EXPECT_EQ(q.value().size(), 1u);

  // Partition-count changes are legal (that is what online
  // repartitioning does), but the steering must stay sound: every home
  // entry names a partition and the modulo never regresses — bucket
  // identities, and with them alloc-id namespaces, must stay stable.
  ClusterMembership bad;
  bad.epoch = 99;
  bad.partitions = {m2.partitions[0], m2.partitions[0]};
  bad.modulo = 2;
  bad.home = {0, 2};  // names no partition
  EXPECT_FALSE(client->apply_membership(bad).ok());
  bad.home = {0, 1};  // a sound split shape adopts fine
  ASSERT_TRUE(client->apply_membership(bad).ok());
  EXPECT_EQ(client->partitions(), 2u);
  ClusterMembership shrunk;
  shrunk.epoch = 100;
  shrunk.partitions = {m2.partitions[0]};
  shrunk.modulo = 1;
  auto reg = client->apply_membership(shrunk);
  ASSERT_FALSE(reg.ok());
  EXPECT_EQ(reg.error().code, Errc::invalid_argument);
  EXPECT_EQ(client->partition_map().epoch(), 99u);
}

// --- Satellite: retry jitter decorrelation ---

TEST(ControlTest, BackoffSeedsDecorrelatePerClient) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state);

  RemoteDiscovery::Options opts;  // backoff_seed = 0: derive from client id
  RemoteDiscovery a(net->bind(Addr::mem("a", 0)).value(), server.addr(), opts);
  RemoteDiscovery b(net->bind(Addr::mem("b", 0)).value(), server.addr(), opts);
  EXPECT_NE(a.backoff_seed(), 0u);
  EXPECT_NE(b.backoff_seed(), 0u);
  // Identical options, different clients, different retry schedules: a
  // fleet retrying into a recovering replica spreads out instead of
  // thundering in lockstep.
  EXPECT_NE(a.backoff_seed(), b.backoff_seed());

  RemoteDiscovery::Options pinned;
  pinned.backoff_seed = 42;  // tests that need reproducible backoff
  RemoteDiscovery c(net->bind(Addr::mem("c", 0)).value(), server.addr(),
                    pinned);
  EXPECT_EQ(c.backoff_seed(), 42u);
}

// --- Runtime bootstrap ---

TEST(ControlTest, RuntimeBootstrapsFailoverDiscoveryFromServerList) {
  auto net = MemNetwork::create();
  DiscoveryCluster::Config cfg;
  cfg.partitions = 1;
  cfg.replicas = 2;
  cfg.transports = mem_factory(net, "ctrl");
  auto cluster = DiscoveryCluster::start(std::move(cfg)).value();

  RuntimeConfig rcfg;
  rcfg.host_id = "h-boot";
  rcfg.transports = mem_factory(net, "h-boot");
  rcfg.discovery_servers = cluster->partition_servers(0);
  rcfg.discovery_rpc.rpc_timeout = ms(60);
  rcfg.discovery_rpc.retries = 5;
  auto rt = Runtime::create(std::move(rcfg)).value();

  ASSERT_TRUE(rt->discovery().register_impl(info_of("offload", "boot/x")).ok());
  ASSERT_EQ(rt->discovery().query("offload").value().size(), 1u);

  // Kill the active replica: the runtime's discovery handle rotates and
  // keeps answering.
  auto remote =
      std::dynamic_pointer_cast<RemoteDiscovery>(rt->config().discovery);
  ASSERT_NE(remote, nullptr);
  const auto& servers = cluster->partition_servers(0);
  size_t victim = remote->active_server() == servers[0] ? 0 : 1;
  cluster->kill_replica(0, victim);

  auto q = rt->discovery().query("offload");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  EXPECT_EQ(q.value().size(), 1u);
  EXPECT_GE(remote->server_failovers(), 1u);
}

}  // namespace
}  // namespace bertha
