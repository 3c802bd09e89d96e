// Sharded, replicated discovery control plane.
//
// Two pieces:
//
//  * ClusterDiscovery — the client-side router. Implements
//    DiscoveryClient over N partitions, each served by a replica group:
//    ops are steered to their partition with the shard chunnel's
//    consistent hash (PartitionMap), and each partition is reached
//    through a multi-server RemoteDiscovery that fails over between the
//    partition's replicas on RPC timeout or watch-stream silence. The
//    catalogue-wide watch (empty filter) fans in every partition's
//    stream into one watcher; each partition client's reader relays
//    its batches inline, so a fan-in costs no thread.
//    apply_membership() adopts a newer versioned cluster config
//    (replicas added/removed online) and re-steers every partition
//    client.
//
//  * DiscoveryCluster — the in-process harness that stands up the whole
//    control plane (per partition: a sequencer candidate list plus R
//    DiscoveryReplicas) on mem transports, used by tests, the chaos
//    suite and the failover bench. kill_replica()/kill_sequencer() tear
//    components down the hard way, exactly like a process death: their
//    transports close and clients discover it by timeout.
//    restart_replica() and add_replica() exercise the recovery layer:
//    the (re)joining replica boots with catch_up and installs a peer
//    snapshot before serving.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chunnels/ordered_mcast.hpp"
#include "control/partition_map.hpp"
#include "control/replica.hpp"
#include "core/discovery.hpp"
#include "core/runtime.hpp"

namespace bertha {

class ClusterDiscovery final : public DiscoveryClient {
 public:
  struct Config {
    // partitions[i] = the rpc addresses of partition i's replicas.
    std::vector<std::vector<Addr>> partitions;
    std::shared_ptr<TransportFactory> transports;
    std::string host_id;  // client bind identity (mem/sim channels)
    RemoteDiscovery::Options rpc;  // per-partition client options
  };

  static Result<std::shared_ptr<ClusterDiscovery>> connect(Config cfg);
  ~ClusterDiscovery() override;

  Result<void> register_impl(const ImplInfo& info) override;
  Result<void> unregister_impl(const std::string& type,
                               const std::string& name) override;
  Result<std::vector<ImplInfo>> query(const std::string& type) override;
  // Scatter-gather: one frame per partition owning a listed type, all in
  // flight before any is awaited, so the read costs one round trip.
  // Retry and replica rotation stay per partition.
  QueryOutcomes query_many(const std::vector<std::string>& types) override;
  Result<uint64_t> acquire(const std::vector<ResourceReq>& reqs) override;
  Result<void> release(uint64_t alloc_id) override;
  Result<void> set_pool(const std::string& pool, uint64_t capacity) override;
  // Non-empty filter: the partition owning that type serves the stream
  // directly (seq-resumable across that partition's replicas). Empty
  // filter: one fan-in watcher over every partition, re-sequenced
  // locally (the merged stream has its own seq domain).
  Result<WatcherPtr> watch(const std::string& type_filter) override;
  bool degraded() const override;

  // Adopts a newer cluster config: records the epoch (and any steering
  // change — split/merge re-homes hash buckets) in the partition map and
  // re-steers every partition client at the config's replica list (the
  // client keeps its current server when it is still a member). Grows
  // new partition clients on a split (active fan-in watches subscribe to
  // the new partitions; the snapshot batch makes that idempotent) and
  // drops retired ones on a merge. Rejects stale/equal epochs and
  // steering-modulo regressions.
  Result<void> apply_membership(const ClusterMembership& m);

  const PartitionMap& partition_map() const { return map_; }
  // The per-partition client (diagnostics/tests).
  RemoteDiscovery& partition_client(size_t i) { return *client_for(i); }
  size_t partitions() const;
  // Total replica failovers across all partition clients.
  size_t server_failovers() const;

 private:
  explicit ClusterDiscovery(size_t partitions) : map_(partitions) {}
  // Relays `upstream` into the merged watcher `out` inline, and ties the
  // upstream's cancellation to out's.
  void fan_in(const WatcherPtr& upstream, const WatcherPtr& out);
  std::shared_ptr<RemoteDiscovery> client_for(size_t idx) const;
  Result<std::shared_ptr<RemoteDiscovery>> connect_partition(
      const std::vector<Addr>& servers) const;

  Config cfg_;  // retained so apply_membership can grow new partitions
  PartitionMap map_;
  // clients_ changes size under cl_mu_ when a membership push adds or
  // retires partitions; ops grab the shared_ptr under the lock and call
  // outside it.
  mutable std::mutex cl_mu_;
  std::vector<std::shared_ptr<RemoteDiscovery>> clients_;

  // Fan-in watch plumbing (empty-filter watches only). Upstreams are
  // tagged with their partition index so a merge can cancel the streams
  // of retired partitions.
  std::mutex fan_mu_;
  std::vector<std::pair<size_t, WatcherPtr>> fan_upstreams_;
  std::vector<WatcherPtr> fan_outs_;
  // Taken by the upstream sinks (never with fan_mu_ held by them).
  std::mutex fan_seq_mu_;
  uint64_t fan_seq_ = 0;
};

// The full control plane, dogfooded on Bertha's own stacks: ordered
// multicast for replication, the shard hash for partitioning, the
// discovery server/client protocol for RPCs and watch push.
class DiscoveryCluster {
 public:
  struct Config {
    size_t partitions = 2;
    size_t replicas = 3;
    std::shared_ptr<TransportFactory> transports;
    // Mem-channel prefix: partition p replica r binds
    // mem://<prefix>-p<p>-r<r>:{1,2} (rpc, member); sequencer candidate
    // 0 binds mem://<prefix>-p<p>-seq:1, candidate k > 0
    // mem://<prefix>-p<p>-seq<k>:1.
    std::string prefix = "ctrl";
    // Template for every replica. replica_id / partition_index /
    // sequencer(s) / peers are filled per replica; the recovery knobs
    // (catchup / view-change timeouts) come from `tuning` below, not
    // from this template.
    DiscoveryReplicaOptions replica;
    // Sequencer candidates per partition. Candidate 0 starts active in
    // view 0; the rest stand by until a view change elects them
    // (view v -> candidate v % sequencer_candidates). 1 = no sequencer
    // failover (and view-change detection stays disabled).
    size_t sequencer_candidates = 1;
    // Recovery tuning: sequencer resend-log bound, catch-up and
    // view-change timeouts, client watchdog poll (see core/runtime.hpp).
    // view_silence_timeout only takes effect with >= 2 candidates.
    ControlTuning tuning;
    // Optional wrapper applied to every bound transport; `role` is
    // "<prefix>-p<p>-r<r>-rpc", "<prefix>-p<p>-r<r>-member",
    // "<prefix>-p<p>-seq" (candidate 0) or "<prefix>-p<p>-seq<k>" so a
    // test can fault-inject one component and leave the rest clean.
    std::function<TransportPtr(TransportPtr, const std::string& role)> decorate;
  };

  static Result<std::unique_ptr<DiscoveryCluster>> start(Config cfg);
  ~DiscoveryCluster();

  // Total partition slots ever created, retired ones included (their
  // replica pointers are null). active_partitions() is the number that
  // the current membership steers traffic to.
  size_t partitions() const {
    std::lock_guard<std::mutex> lk(mu_);
    return replicas_.size();
  }
  size_t active_partitions() const;
  size_t replicas(size_t p) const {
    std::lock_guard<std::mutex> lk(mu_);
    return replicas_[p].size();
  }
  // Replica rpc address list of one partition under the current
  // membership (grows with add_replica; a restarted replica rebinds the
  // same channel, so kills don't shrink it).
  std::vector<Addr> partition_servers(size_t p) const;
  std::vector<std::vector<Addr>> all_servers() const;

  // The current versioned cluster config (epoch starts at 1; every
  // add_replica bumps it). Feed to ClusterDiscovery::apply_membership.
  ClusterMembership membership() const;

  // Hard-kills one replica: transports close, in-flight RPCs time out,
  // clients rotate. Idempotent.
  void kill_replica(size_t p, size_t r);
  bool alive(size_t p, size_t r) const;
  // Boots the killed replica again on the same addresses, catch_up set:
  // it installs a peer snapshot (state + watch event log + dedup) and
  // replays the sequenced suffix before serving. No-op error when still
  // alive. With no peers (single-replica partition) the restart comes
  // back empty instead.
  Result<void> restart_replica(size_t p, size_t r);
  // Grows partition p by one catch-up replica, steers the partition's
  // live sequencers at the widened member list and bumps the membership
  // epoch. Returns the new replica's index.
  Result<size_t> add_replica(size_t p);

  // Hard-kills one sequencer candidate (the view-change trigger when
  // it's the active one). Idempotent.
  void kill_sequencer(size_t p, size_t c = 0);
  bool sequencer_alive(size_t p, size_t c = 0) const;

  // --- Online repartitioning hooks (driven by ReshardCoordinator) ---
  //
  // prepare_partition() appends one fully-replicated partition (replica
  // group + sequencer candidates) that no membership steers traffic to
  // yet; revive_partition() reboots a retired slot the same way. Both
  // leave steering untouched: the new group idles until set_steering()
  // re-homes hash buckets onto it and push_membership() tells every
  // registered client. retire_partition() hard-stops a partition's
  // replicas and sequencers after a merge drained it.
  Result<size_t> prepare_partition();
  Result<void> revive_partition(size_t p);
  void retire_partition(size_t p);
  // Adopts a new steering table (see PartitionMap: index =
  // home[shard_pick(key, modulo)]), bumps the membership epoch and
  // records how many leading partitions the config exports. Returns the
  // new epoch.
  uint64_t set_steering(uint64_t modulo, std::vector<uint32_t> home,
                        size_t active);
  // Pushes the current membership to every live client minted by
  // client(); returns how many adopted it.
  size_t push_membership();
  // Topology for the reshard coordinator.
  std::vector<Addr> partition_members(size_t p) const;
  std::vector<Addr> sequencer_addrs(size_t p) const;
  const std::shared_ptr<TransportFactory>& transports() const {
    return cfg_.transports;
  }
  const std::string& prefix() const { return cfg_.prefix; }

  // nullptr after kill_replica.
  DiscoveryReplica* replica(size_t p, size_t r) {
    std::lock_guard<std::mutex> lk(mu_);
    return replicas_[p][r].get();
  }
  // Candidate 0 (the view-0 sequencer); invalid after kill_sequencer(p).
  SoftwareSequencer& sequencer(size_t p) { return *sequencer_at(p, 0); }
  // nullptr after kill_sequencer(p, c).
  SoftwareSequencer* sequencer_at(size_t p, size_t c) {
    std::lock_guard<std::mutex> lk(mu_);
    return sequencers_[p][c].get();
  }

  // A routing client over this cluster. `host_id` must be unique per
  // client (mem bind channel + lease identity namespace).
  Result<std::shared_ptr<ClusterDiscovery>> client(
      const std::string& host_id, RemoteDiscovery::Options rpc = {});

  void stop();

 private:
  explicit DiscoveryCluster(Config cfg) : cfg_(std::move(cfg)) {}
  Result<TransportPtr> bind(const Addr& addr, const std::string& role) const;
  Result<void> start_partition(size_t p);
  DiscoveryReplicaOptions replica_opts(size_t p, size_t r) const;
  std::string replica_name(size_t p, size_t r) const;

  Config cfg_;
  // rpc_addrs_, the steering fields and epoch_ change online
  // (add_replica / set_steering) while clients read them, and the
  // topology vectors below them change under kills, restarts and
  // repartitioning: all are read and written under mu_. Replicas and
  // sequencers are started and destroyed outside it (the outer vectors
  // are reserved up front, so a raw pointer handed out stays valid until
  // its replica or sequencer is killed).
  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  uint64_t modulo_ = 0;           // steering modulo (monotone, >= active)
  std::vector<uint32_t> home_;    // bucket -> partition
  size_t active_ = 0;             // leading partitions the config exports
  std::vector<std::weak_ptr<ClusterDiscovery>> client_registry_;
  std::vector<std::vector<Addr>> rpc_addrs_;
  std::vector<std::vector<Addr>> member_addrs_;
  std::vector<std::vector<Addr>> seq_addrs_;  // [partition][candidate]
  std::vector<std::vector<std::unique_ptr<SoftwareSequencer>>> sequencers_;
  std::vector<std::vector<std::unique_ptr<DiscoveryReplica>>> replicas_;
};

}  // namespace bertha
