// Replicated state machine over the ordered multicast chunnel
// (paper §3.2 / Listing 2: the Speculative-Paxos / NOPaxos pattern —
// the network orders operations, replicas apply them in sequence).
//
// The replicated state machine is a KV store; operations are KvRequests.
// Every replica applies every operation in the global order; one
// designated replica replies to clients (clients treat its response as
// the commit acknowledgement — full view-change/recovery machinery is
// out of scope, gaps are counted by the chunnel).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "apps/kvproto.hpp"
#include "apps/kvstore.hpp"
#include "core/endpoint.hpp"

namespace bertha {

// In-order release of a sequenced operation stream: the holdback/apply
// half of the RSM pattern, extracted so other replicated state machines
// (the discovery control plane's DiscoveryReplica) reuse it instead of
// re-deriving the gap bookkeeping. Feed it (seq, op) pairs in any order;
// it returns the maximal contiguous run starting at the expected next
// seq. Not thread-safe — own it from one apply thread.
class SequencedApplyWindow {
 public:
  explicit SequencedApplyWindow(uint64_t first_seq = 0) : next_(first_seq) {}

  // Offers one sequenced item; returns every (seq, item) now releasable
  // in order (empty while a gap blocks the head). Duplicates and
  // already-released seqs are dropped.
  std::vector<std::pair<uint64_t, Bytes>> offer(uint64_t seq, Bytes item);

  // Next seq the window expects (everything below has been released).
  uint64_t next_seq() const { return next_; }
  // True when items are buffered behind a missing seq.
  bool has_gap() const { return !holdback_.empty(); }
  // Lowest buffered seq (call only when has_gap()): the missing range is
  // [next_seq(), gap_end()).
  uint64_t gap_end() const { return holdback_.begin()->first; }
  size_t buffered() const { return holdback_.size(); }

  // Gap recovery gave up on [next_seq(), up_to): skip ahead and release
  // whatever is now contiguous.
  std::vector<std::pair<uint64_t, Bytes>> skip_to(uint64_t up_to);

  // Hands back the buffered holdback, emptying the window — used when a
  // catch-up replaces the window wholesale: the caller re-offers these
  // into the replacement so received-but-gapped items aren't lost.
  std::vector<std::pair<uint64_t, Bytes>> take_buffered() {
    std::vector<std::pair<uint64_t, Bytes>> out;
    out.reserve(holdback_.size());
    for (auto& [seq, item] : holdback_) out.emplace_back(seq, std::move(item));
    holdback_.clear();
    return out;
  }

 private:
  std::vector<std::pair<uint64_t, Bytes>> drain();

  uint64_t next_;
  std::map<uint64_t, Bytes> holdback_;
};

struct RsmReplicaConfig {
  std::shared_ptr<Runtime> rt;
  Addr listen_addr;  // control address (negotiation)
  Addr member_addr;  // where sequenced operations arrive (group member)
  // Name of the consensus group this replica belongs to; negotiation
  // only binds sequencers advertised for this instance.
  std::string group;
  bool replier = false;
  ChunnelArgs extra_mcast_args;  // e.g. explicit group/sequencer override
};

class RsmReplica {
 public:
  static Result<std::unique_ptr<RsmReplica>> start(RsmReplicaConfig cfg);
  ~RsmReplica();

  const Addr& control_addr() const;
  KvStore& store() { return store_; }
  uint64_t applied() const { return applied_.load(std::memory_order_relaxed); }
  void stop();

 private:
  RsmReplica(RsmReplicaConfig cfg, std::unique_ptr<Listener> listener);
  void accept_loop();
  void drain(ConnPtr conn);

  RsmReplicaConfig cfg_;
  std::unique_ptr<Listener> listener_;
  KvStore store_;
  std::atomic<uint64_t> applied_{0};
  std::atomic<bool> stopping_{false};
  std::mutex apply_mu_;  // held across one drainer's pop and apply
  std::mutex mu_;
  std::vector<std::thread> threads_;
  std::vector<ConnPtr> conns_;  // accepted connections, closed at stop()
  std::thread accept_thread_;
};

// Client: executes operations against the group and waits for the
// designated replier's response.
class RsmClient {
 public:
  // Connects (and negotiates) with every replica's control address.
  static Result<std::unique_ptr<RsmClient>> connect(
      std::shared_ptr<Runtime> rt, const std::vector<Addr>& replicas,
      Deadline deadline = Deadline::never());

  Result<KvResponse> execute(const KvRequest& op,
                             Deadline deadline = Deadline::never());
  void close() { conn_->close(); }

 private:
  explicit RsmClient(ConnPtr conn) : conn_(std::move(conn)) {}
  ConnPtr conn_;
};

}  // namespace bertha
