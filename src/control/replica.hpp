// One replica of one discovery control-plane partition.
//
// A DiscoveryReplica owns a full DiscoveryState copy of its partition's
// catalogue and a DiscoveryServer that serves clients from it. Queries
// and watch streams serve purely locally; every mutation is routed
// through the partition's ordered-multicast sequencer (the NOPaxos
// pattern, chunnels/ordered_mcast.hpp) and applied — in identical global
// order, at the op's origin-stamped time — by every replica of the
// group. Because the apply stream is identical, so is every derived
// artifact: the catalogue, the lease table, the allocation ids, the
// idempotency cache, and crucially the watch-event sequence — which is
// what lets a client fail over to another replica and resume its watch
// stream by seq alone, no snapshot needed.
//
// Self-healing (see DESIGN.md §9):
//
//  * Catch-up. A joining or restarted replica (catch_up = true) fetches
//    a consistent snapshot — catalogue, leases, replicated dedup cache,
//    applied-proposal ids, watch event log, next expected seq — from a
//    live peer over control_wire snapshot frames, installs it, and only
//    then starts its DiscoveryServer. The sequenced suffix past the
//    snapshot replays through the normal gap-fetch path.
//
//  * Gap handling. A replica that sees a sequence gap first asks the
//    sequencer to retransmit from its bounded log (mcast_fetch_frame).
//    If the range was evicted the sequencer answers with a miss frame
//    and the replica catches up from a peer instead of skipping; the
//    bounded skip of the datapath remains only as the last resort when
//    no peer can help.
//
//  * Sequencer view change (the NOPaxos view-change analogue). Every
//    stamp carries a view number. When sequenced traffic goes silent
//    for view_silence_timeout (replicated sweeps double as keepalives),
//    replicas broadcast view-change messages carrying their last
//    contiguous seq; once a majority acks the new view, the next
//    sequencer from the candidate list is activated at the quorum's max
//    seq. In-flight proposals are re-sent to the new sequencer, and the
//    replicated applied-proposal ids make re-proposed ops at-most-once.
//
// Lease expiry is replicated too: each replica proposes an idempotent
// sweep op (CtrlOpKind::sweep) from a periodic process_wheel() entry
// instead of sweeping from its local clock, so all replicas reap the
// same owners at the same point in the op stream. The local
// DiscoveryState runs with manual sweep and a partition-namespaced
// allocation counter.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/rsm.hpp"
#include "chunnels/ordered_mcast.hpp"
#include "control/control_wire.hpp"
#include "core/discovery.hpp"

namespace bertha {

struct DiscoveryReplicaOptions {
  std::string replica_id;      // unique across the cluster (e.g. "p0-r1")
  uint64_t partition_index = 0;  // alloc-id namespace for this partition
  Addr sequencer;              // where proposals go (view-0 sequencer)
  // Sequencer candidate list for view changes: view v is served by
  // sequencers[v % size]. When empty, `sequencer` serves every view
  // (no failover).
  std::vector<Addr> sequencers;
  // Member addresses of the sibling replicas of this partition — the
  // catch-up sources and view-change quorum. Majority is computed over
  // peers.size() + 1.
  std::vector<Addr> peers;
  // Joining/restarting: install a peer snapshot (and only then start
  // serving) instead of assuming the partition starts empty.
  bool catch_up = false;
  // How long a proposal waits for its own op to come back out of the
  // sequencer before the client RPC fails transiently (the client
  // retries; the idempotency cache absorbs duplicates).
  Duration apply_timeout = ms(500);
  // Period of proposed lease-sweep ops; zero disables (tests drive
  // expiry by proposing their own sweeps).
  Duration sweep_period = ms(50);
  // Gap recovery: how long after the retransmit fetch a head-of-line
  // gap may persist before catch-up (then skip) takes over.
  Duration gap_timeout = ms(20);
  // Per-peer wait for a catch-up snapshot response.
  Duration catchup_timeout = ms(250);
  // Sequencer failure detection: sequenced-traffic silence before a
  // view-change round starts. Zero disables; detection also requires
  // at least two sequencer candidates and expected traffic (sweeps on,
  // or proposals in flight).
  Duration view_silence_timeout = Duration::zero();
  // Grace collecting view-change acks past the majority before sending
  // view-start to the new sequencer.
  Duration view_ack_timeout = ms(50);
  // Online repartitioning: factory for the one-shot transport used to
  // forward cut-over range requests to their new home (and mirror
  // heartbeats during the handoff). Bound lazily on first forward, so
  // clusters that never reshard pay nothing. Unset: forwards fail
  // transiently (stale clients retry until they re-steer).
  std::function<Result<TransportPtr>()> forward_bind;
  // Per-destination-replica wait for a forwarded request's response.
  Duration forward_timeout = ms(250);
  DiscoveryServer::Options server;  // serving options (tracer, coalesce…)
  TracerPtr tracer;                 // ctrl.apply / ctrl.catchup / view spans
  FaultStatsPtr stats;
};

class DiscoveryReplica {
 public:
  // `rpc_transport` serves client RPCs (DiscoveryServer); `member`
  // receives the sequenced op stream and sends proposals. Both are
  // owned; tests pass fault-injecting wrappers. With catch_up set the
  // DiscoveryServer starts only after a peer snapshot installs (see
  // wait_ready()).
  static Result<std::unique_ptr<DiscoveryReplica>> start(
      TransportPtr rpc_transport, TransportPtr member,
      DiscoveryReplicaOptions opts);
  ~DiscoveryReplica();

  DiscoveryReplica(const DiscoveryReplica&) = delete;
  DiscoveryReplica& operator=(const DiscoveryReplica&) = delete;

  const std::string& replica_id() const { return opts_.replica_id; }
  const Addr& rpc_addr() const { return rpc_addr_; }
  const Addr& member_addr() const { return member_addr_; }
  // Valid only once ready() (always true for non-catch-up replicas).
  DiscoveryServer& server() { return *server_; }
  const std::shared_ptr<DiscoveryState>& state() const { return state_; }

  // False while a catch-up boot is still installing the peer snapshot.
  bool ready() const { return ready_.load(std::memory_order_acquire); }
  bool wait_ready(Duration timeout);

  // Ops applied from the sequenced stream (including sweeps).
  uint64_t applied() const { return applied_.load(std::memory_order_relaxed); }
  // Head-of-line gaps abandoned after retransmission AND catch-up failed.
  uint64_t gaps_skipped() const {
    return gaps_skipped_.load(std::memory_order_relaxed);
  }
  // Retransmit fetches sent to the sequencer.
  uint64_t fetches() const { return fetches_.load(std::memory_order_relaxed); }
  // Mutations answered from the replicated idempotency cache at apply.
  uint64_t replicated_dedup_hits() const {
    return dedup_hits_.load(std::memory_order_relaxed);
  }
  // Peer snapshots installed (boot + gap-miss recovery).
  uint64_t catchups() const {
    return catchups_.load(std::memory_order_relaxed);
  }
  // Fetches answered "range evicted" by the sequencer.
  uint64_t gap_misses() const {
    return gap_misses_.load(std::memory_order_relaxed);
  }
  // Sequencer views adopted (from stamps or snapshots).
  uint64_t view_changes() const {
    return view_changes_.load(std::memory_order_relaxed);
  }
  // Snapshots served to catching-up peers.
  uint64_t snapshots_served() const {
    return snapshots_served_.load(std::memory_order_relaxed);
  }
  uint32_t current_view() const {
    return cur_view_.load(std::memory_order_acquire);
  }
  // Key ranges this replica is migrating (fence..cutover as source, or
  // retained dest markers). Zero outside a reshard window.
  size_t reshard_ranges() const;
  // Requests forwarded one-hop to a range's new home after cutover.
  uint64_t reshard_forwards() const {
    return reshard_forwards_.load(std::memory_order_relaxed);
  }

  void stop();

 private:
  DiscoveryReplica(std::shared_ptr<Transport> member,
                   DiscoveryReplicaOptions opts);

  struct PendingApply {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Bytes response;  // encoded DiscResponse recorded at apply
    Bytes ctrl_op;   // encoded CtrlOp, re-proposed on view change
  };

  // View-change round in progress (member thread only).
  struct ViewChangeRound {
    uint32_t view = 0;  // 0: no round
    std::map<std::string, uint64_t> acks;  // replica id -> last contig seq
    TimePoint started{};
    bool start_sent = false;
  };

  // The DiscoveryServer mutation hook: encode, sequence, wait for apply.
  DiscResponse propose(const DiscRequest& req);
  void member_loop();
  // The sweep_period wheel entry: proposes one replicated sweep op.
  void propose_sweep();
  // Applies one decoded sequenced op to the local state.
  void apply(uint64_t seq, BytesView ctrl_frame);

  // Member-thread machinery (all run on member_thread_ only).
  Addr sequencer_for(uint32_t view) const;
  bool detection_enabled();
  Deadline next_deadline();
  void check_timers();
  void dispatch(BytesView payload);
  void handle_sequenced(const McastOp& op);
  void handle_fetch_miss(const McastFetchMiss& miss);
  void handle_view_change(const CtrlViewChangeMsg& m);
  void initiate_view_change(uint32_t target);
  void broadcast_view_change(uint32_t view);
  void maybe_send_view_start();
  void adopt_view(uint32_t view, const char* how);
  bool do_catchup(const char* reason);
  void install_peer_snapshot(const CtrlSnapshotRsp& rsp, const char* reason);
  void serve_snapshot(const CtrlSnapshotReq& req);
  void create_server_locked();
  void record_applied_id(std::string op_id);

  // --- Online repartitioning (see control_wire.hpp ReshardOp) ---
  // Per-range migration state. Mutated only at sequenced-op apply points
  // (member thread) or snapshot install; read by the serve thread's
  // interceptor — hence the dedicated mutex.
  struct RangeState {
    uint64_t modulo = 0;
    uint64_t epoch = 0;
    uint8_t role = 1;   // 1 = source, 2 = destination
    uint8_t phase = 0;  // highest ReshardPhase applied
    std::vector<Addr> dst_rpc;
    // Frozen cut of the range (source, fence..cutover): answers range
    // queries while mutations fail transiently.
    std::shared_ptr<DiscoveryState> frozen;
    std::unordered_set<uint64_t> migrated;  // alloc ids that moved
    Bytes payload;  // encoded ReshardPayload (serves snapshot fetches)
  };
  // Applies one sequenced reshard op (member thread / apply path).
  void apply_reshard(const ReshardOp& rop, uint64_t seq);
  void handle_reshard_snapshot_req(const ReshardSnapshotReq& req);
  // Serve-thread hook: fence/forward requests touching migrating ranges.
  std::optional<DiscResponse> intercept(const DiscRequest& req);
  Result<DiscResponse> forward(const DiscRequest& req,
                               const std::vector<Addr>& dst);
  // Fire-and-forget copy of a heartbeat to cut-over destinations, so
  // migrated leases stay refreshed until their owners re-steer.
  void mirror_heartbeat(const DiscRequest& req);

  std::shared_ptr<Transport> member_;
  Addr member_addr_;
  Addr rpc_addr_;
  DiscoveryReplicaOptions opts_;
  std::shared_ptr<DiscoveryState> state_;
  // Guards server_ creation/teardown (catch-up boots create it from the
  // member thread; stop() may race).
  std::mutex server_mu_;
  std::unique_ptr<DiscoveryServer> server_;
  TransportPtr boot_rpc_;  // held until the deferred server is created
  // Event log from a snapshot installed before the server existed
  // (catch-up boot); handed to the server on creation. Under server_mu_.
  std::optional<EventLogSnapshot> boot_log_;
  uint64_t boot_log_seq_ = 0;
  std::atomic<bool> ready_{false};

  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> gaps_skipped_{0};
  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> dedup_hits_{0};
  std::atomic<uint64_t> catchups_{0};
  std::atomic<uint64_t> gap_misses_{0};
  std::atomic<uint64_t> view_changes_{0};
  std::atomic<uint64_t> snapshots_served_{0};
  std::atomic<uint32_t> cur_view_{0};
  std::atomic<bool> stopping_{false};

  // Proposals awaiting their sequenced apply, by submit_id.
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingApply>> pending_;
  std::atomic<uint64_t> next_submit_{0};

  // Replicated idempotency cache: identical on every replica because it
  // is maintained at apply time, from replicated ops only. Bounded FIFO
  // so eviction is deterministic too.
  static constexpr size_t kApplyDedupCap = 1024;
  std::unordered_map<std::string, Bytes> apply_dedup_;
  std::deque<std::string> apply_dedup_order_;

  // Applied-proposal ids ("<origin>#<submit_id>"): the at-most-once
  // guard for ops re-proposed across a view change (the client-keyed
  // cache above can't cover ops without idem keys). Replicated state —
  // member thread only, snapshot-transferred, bounded FIFO.
  static constexpr size_t kAppliedIdsCap = 4096;
  std::unordered_set<std::string> applied_ids_;
  std::deque<std::string> applied_ids_order_;

  // In-flight range migrations, keyed by range (one migration per range
  // at a time). Guarded by reshard_mu_.
  mutable std::mutex reshard_mu_;
  std::map<uint64_t, RangeState> reshard_;
  std::atomic<uint64_t> reshard_forwards_{0};
  // One-shot forward transport (lazily bound; serialized by fwd_mu_,
  // which is also held across a forward's send/recv round).
  std::mutex fwd_mu_;
  TransportPtr fwd_;
  std::atomic<uint64_t> fwd_token_{0};

  // Ordered-release window + gap/view/catch-up state (member thread).
  SequencedApplyWindow window_;
  bool fetch_sent_ = false;
  bool gap_catchup_tried_ = false;
  TimePoint gap_since_{};
  TimePoint last_seen_{};
  ViewChangeRound vc_;
  size_t catchup_rr_ = 0;  // rotates the first peer tried

  uint64_t sweep_timer_ = 0;  // periodic process_wheel() entry
  std::thread member_thread_;
};

}  // namespace bertha
