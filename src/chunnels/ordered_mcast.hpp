// Ordered multicast chunnel (paper §3.2 "Network-Assisted Consensus",
// Listing 2/3) — the NOPaxos/Speculative-Paxos building block.
//
// Clients send operations to a consensus group; every replica delivers
// them in one global order. Two implementations:
//
//   ordered_mcast/switch    packets are sequenced *in the network*: the
//                           SimSwitch installs a hardware-sequenced
//                           multicast group into SimNet, which stamps a
//                           global sequence number in transit with no
//                           extra hop (advertised via discovery by the
//                           switch; see sim/simswitch.hpp),
//   ordered_mcast/software  the host fallback: a SoftwareSequencer
//                           process receives each operation, stamps it,
//                           and re-multicasts — one extra network hop
//                           and a CPU on the critical path.
//
// Wire format reaching each replica:
//   [u64le stamp][ 'M' '1' | varint reply_uri_len | reply_uri | op ]
// where stamp packs a sequencer view number into the top 16 bits and
// the global sequence number into the low 48 (view 0 == the original
// unversioned format, so pre-view traffic parses unchanged). Replies
// are raw payloads sent directly to reply_uri.
//
// Server-side semantics: every replica sees ONE globally-ordered
// operation stream per listener; all accepted connections at that
// listener drain the same stream (consensus applies operations from all
// clients in one order). Gaps (drops) are skipped after a timeout and
// counted — a real protocol would trigger its recovery path here.
#pragma once

#include <atomic>
#include <deque>
#include <unordered_map>

#include "chunnels/common.hpp"
#include "core/chunnel.hpp"
#include "core/discovery.hpp"
#include "util/queue.hpp"

namespace bertha {

// Shared per-listener replica state: the member transport and the
// ordered delivery queue.
class McastReplicaState;

// Base for the two implementations (they differ only in where clients
// send: the group address vs the sequencer address).
class OrderedMcastChunnelBase : public ChunnelImpl {
 public:
  ~OrderedMcastChunnelBase() override;
  Result<void> on_listen(ListenContext& ctx) override;
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override;
  void teardown() override;

  // Total head-of-line gaps skipped across replicas (lost sequenced
  // packets a real consensus protocol would recover).
  uint64_t gaps_skipped() const;

 protected:
  explicit OrderedMcastChunnelBase(std::string target_arg)
      : target_arg_(std::move(target_arg)) {}
  ImplInfo info_;

 private:
  std::string target_arg_;  // "group_addr" or "sequencer_addr"
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<McastReplicaState>> replicas_;
};

class SwitchOrderedMcastChunnel final : public OrderedMcastChunnelBase {
 public:
  SwitchOrderedMcastChunnel();
  const ImplInfo& info() const override { return info_; }
};

class SoftwareOrderedMcastChunnel final : public OrderedMcastChunnelBase {
 public:
  SoftwareOrderedMcastChunnel();
  const ImplInfo& info() const override { return info_; }
};

// The host-fallback sequencer: stamps and re-multicasts operations.
// Start one per group, then register_with() discovery so negotiation
// can pick it when no switch offload exists.
class SoftwareSequencer {
 public:
  // `retransmit_window`: stamped packets kept for gap recovery — a
  // replica that detects a sequence gap sends a fetch frame and the
  // sequencer re-sends the missing range from this bounded log. 0 (the
  // default) disables retransmission, matching the original skip-on-gap
  // behaviour.
  //
  // `standby`: start passive — drop all traffic until a view-start
  // frame activates this sequencer at some view > `view`. A view-change
  // round (src/control/replica) elects standbys in candidate-list
  // order.
  static Result<std::unique_ptr<SoftwareSequencer>> start(
      TransportFactory& factory, const Addr& bind_addr,
      std::vector<Addr> members, size_t retransmit_window = 0,
      uint32_t view = 0, bool standby = false);
  // Same, over an already-bound transport (the control plane pre-binds
  // fault-injecting transports for its sequencers).
  static Result<std::unique_ptr<SoftwareSequencer>> start_with(
      std::shared_ptr<Transport> transport, std::vector<Addr> members,
      size_t retransmit_window = 0, uint32_t view = 0, bool standby = false);
  ~SoftwareSequencer();

  // Advertise this sequencer as an ordered_mcast implementation
  // serving application instance `instance` (see the "instance" arg on
  // ordered_mcast DAG nodes).
  Result<void> register_with(DiscoveryClient& discovery,
                             const std::string& instance);

  const Addr& addr() const { return addr_; }
  uint64_t sequenced() const { return count_.load(std::memory_order_relaxed); }
  // Stamped packets re-sent in answer to fetch frames.
  uint64_t retransmitted() const {
    return retransmits_.load(std::memory_order_relaxed);
  }
  // The view this sequencer stamps with; advances when a view-start
  // frame re-elects it.
  uint32_t view() const { return view_.load(std::memory_order_acquire); }
  // False while standing by (pre-election).
  bool active() const { return active_.load(std::memory_order_acquire); }
  // Replace the multicast member list (membership reconfiguration).
  void update_members(std::vector<Addr> members);
  void stop();

 private:
  SoftwareSequencer(std::shared_ptr<Transport> t, std::vector<Addr> members,
                    size_t retransmit_window, uint32_t view, bool standby);
  // The stamp loop, a process_reactor() handler: one datagram.
  void on_datagram(BytesView pkt);
  void stamp_and_send(BytesView frame);

  std::shared_ptr<Transport> transport_;
  Addr addr_;
  mutable std::mutex members_mu_;
  std::vector<Addr> members_;
  size_t window_ = 0;
  std::atomic<uint32_t> view_{0};
  std::atomic<bool> active_{true};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> retransmits_{0};
  // The retransmit log, touched only by the stamp loop (the reactor runs
  // one handler call per registration at a time): stamped packet seq s
  // sits at log_[s - log_base_].
  std::deque<Bytes> log_;
  uint64_t log_base_ = 0;
  uint64_t reactor_id_ = 0;  // process_reactor() registration
};

// Framing helpers (shared with tests).

// The u64 stamp prefixed to every sequenced datagram packs the
// sequencer's view into the top 16 bits and the global sequence number
// into the low 48. Seq stays monotonic *across* views (a new sequencer
// resumes from the agreed last-contiguous seq), so ordered delivery
// logic keys on seq alone and view only gates staleness.
inline constexpr unsigned kMcastSeqBits = 48;
inline constexpr uint64_t kMcastSeqMask =
    (uint64_t(1) << kMcastSeqBits) - 1;
inline constexpr uint64_t mcast_stamp(uint32_t view, uint64_t seq) {
  return (uint64_t(view) << kMcastSeqBits) | (seq & kMcastSeqMask);
}

Bytes mcast_frame(const Addr& reply_to, BytesView op);
struct McastOp {
  uint64_t seq;
  uint32_t view = 0;
  Addr reply_to;
  BytesView payload;
};
// Parses [seq][frame] as delivered to a replica.
Result<McastOp> parse_sequenced_mcast(BytesView datagram);
// Parses just the frame (what a sequencer receives, before stamping).
Result<std::pair<Addr, BytesView>> parse_mcast_frame(BytesView datagram);

// Gap-recovery fetch: a replica asks the sequencer to re-send stamped
// packets with seq in [from, to).
struct McastFetch {
  Addr reply_to;
  uint64_t from = 0;
  uint64_t to = 0;
};
Bytes mcast_fetch_frame(const Addr& reply_to, uint64_t from, uint64_t to);
Result<McastFetch> parse_mcast_fetch(BytesView datagram);

// Fetch miss: the sequencer's answer when (part of) a fetched range
// has been evicted from its bounded resend log — those seqs cannot be
// retransmitted, and the replica should catch up from a peer snapshot
// instead of skipping.
struct McastFetchMiss {
  uint32_t view = 0;
  uint64_t from = 0;
  uint64_t to = 0;  // exclusive; the evicted subrange of the fetch
};
Bytes mcast_fetch_miss_frame(uint32_t view, uint64_t from, uint64_t to);
Result<McastFetchMiss> parse_mcast_fetch_miss(BytesView datagram);

// View start: sent by a replica that collected a view-change quorum to
// the elected candidate sequencer. Activates it at `view`, resuming the
// seq chain at `start_seq` (the quorum's max last-contiguous seq).
struct McastViewStart {
  uint32_t view = 0;
  uint64_t start_seq = 0;
};
Bytes mcast_view_start_frame(uint32_t view, uint64_t start_seq);
Result<McastViewStart> parse_mcast_view_start(BytesView datagram);

}  // namespace bertha
