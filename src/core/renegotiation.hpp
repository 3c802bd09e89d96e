// Live renegotiation: transitioning *established* connections between
// implementations of the same chunnel type (the runtime-reconfiguration
// follow-on to the paper's establishment-time negotiation, §4.3).
//
// Protocol (wire kinds transition / transition_ack):
//
//   server                                  client
//     | -- transition{epoch,new_token,chain} ->|   (on the current token)
//     |                                        | stage: build new stack on
//     |                                        | new_token, switch sends
//     | <- transition_ack{epoch,accepted} ---- |   (on the new token)
//     | swap at ack; drain old chain           | drain old chain
//     | -- close(old token) when drained ----> |
//
// An epoch is identified by its connection token: every transition mints
// a fresh token and a freshly built chunnel stack on both sides (the
// analogue of ordered_mcast's initial_seq handover — the new epoch
// starts at an explicit sequence boundary instead of inheriting mid-
// stream state). Old-epoch messages keep flowing through the *old*
// stack until a fin or the drain deadline; per-path FIFO transports
// guarantee the fin trails all old data. The drain-before-release
// invariant: resource slots held by a replaced implementation are
// released only after its chain has drained (see DESIGN.md §4).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "core/connection.hpp"
#include "core/discovery.hpp"
#include "core/negotiation.hpp"
#include "trace/trace.hpp"

namespace bertha {

// --- Transition handshake messages ---

// Transition epochs are namespaced per listener: the top 16 bits carry
// a salt derived from the minting server's identity (host, process,
// listen address) and the low 48 bits count transitions on the
// connection. Without the salt, two servers independently minting
// "epoch 1" for the same logical flow (e.g. a client re-established
// against a control-plane replica after failover) produce colliding
// epoch identifiers in traces and ack/cancel matching.
inline constexpr int kEpochCounterBits = 48;
inline constexpr uint64_t kEpochCounterMask =
    (uint64_t{1} << kEpochCounterBits) - 1;

// Salt for `server_identity` (any stable identity string); the result
// occupies only the bits above kEpochCounterBits.
uint64_t mint_epoch_salt(std::string_view server_identity);

enum class TransitionReason : uint8_t {
  upgrade = 1,        // a better implementation became usable
  revocation = 2,     // the current implementation is being reclaimed
  policy_change = 3,  // operator re-ran selection
};

struct TransitionMsg {
  uint64_t epoch = 0;      // strictly increasing per connection
  uint64_t new_token = 0;  // the token the new chain will use
  TransitionReason reason = TransitionReason::upgrade;
  // Mandatory offers (revocations) cannot be declined: a decline or ack
  // timeout closes / force-cuts the connection instead of rolling back.
  bool mandatory = false;
  std::vector<NegotiatedNode> chain;
  uint64_t chain_digest = 0;  // attest_chain() when a secret is configured
  // Optional: the connection's original trace context, so client-side
  // transition handling joins the trace that created the connection.
  TraceContext trace;
};

struct TransitionAckMsg {
  uint64_t epoch = 0;
  bool accepted = false;
  uint8_t errc = 0;
  std::string reason;
};

// Rollback notice (wire kind transition_cancel): the server abandoned
// the offer for `epoch`; a client that staged (or cut over to) that
// epoch's stack must discard it and revert to the previous epoch.
struct TransitionCancelMsg {
  uint64_t epoch = 0;
  TraceContext trace;  // optional; ties the revert into the offer's trace
};

Bytes encode_transition(const TransitionMsg& m);
Result<TransitionMsg> decode_transition(BytesView b);
Bytes encode_transition_ack(const TransitionAckMsg& m);
Result<TransitionAckMsg> decode_transition_ack(BytesView b);
Bytes encode_transition_cancel(const TransitionCancelMsg& m);
Result<TransitionCancelMsg> decode_transition_cancel(BytesView b);

// --- Tuning & stats ---

struct TransitionTuning {
  Duration offer_retry = ms(100);    // offer retransmit period
  Duration ack_timeout = ms(1500);   // give up waiting for the ack
  Duration drain_timeout = ms(500);  // bound on old-chain drain
  Duration drain_slice = ms(2);      // old/new poll alternation while draining
  Duration idle_slice = ms(25);      // server-side cutover-notice latency
  Duration sweep_period = ms(25);    // controller sweep / watch poll period
};

struct TransitionStats {
  uint64_t watch_events = 0;
  uint64_t watch_batches = 0;  // coalesced bursts consumed as one unit
  // Upgrade negotiation re-runs triggered by watch batches: a burst of N
  // registrations in one batch re-runs selection once, not N times.
  uint64_t upgrade_runs = 0;
  // Client torn down because a transition_cancel arrived after its old
  // stack finished draining (nothing left to revert onto).
  uint64_t dead_epoch_closes = 0;
  uint64_t offers_sent = 0;       // includes retransmits
  uint64_t completed = 0;         // cutover + drain finished
  uint64_t declined = 0;          // client refused an offer
  uint64_t rolled_back = 0;       // no ack in time (opportunistic offers)
  uint64_t forced_cutovers = 0;   // drain/ack deadline enforced
  uint64_t closed_mandatory = 0;  // connection closed to honor a revocation
  uint64_t cancels_sent = 0;      // rollback notices sent to clients
  uint64_t reverts = 0;           // client-side stacks reverted on cancel
  uint64_t drained_msgs = 0;      // messages delivered from old chains
  uint64_t max_cutover_ns = 0;    // offer sent -> old chain drained
  uint64_t total_cutover_ns = 0;
};

class MetricsRegistry;
class TransitionStatsSink;

// Registers a MetricsRegistry provider exposing a sink's stats as
// "transition.*" counters (one snapshot covers the runtime; the sink
// stays the source of truth).
void attach_transition_stats_provider(MetricsRegistry& m,
                                      std::shared_ptr<TransitionStatsSink> sink);

// Shared between the controller and every attached host.
class TransitionStatsSink {
 public:
  template <typename F>
  void update(F f) {
    std::lock_guard<std::mutex> lk(mu_);
    f(s_);
  }
  TransitionStats snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return s_;
  }

 private:
  mutable std::mutex mu_;
  TransitionStats s_;
};

using StatsSinkPtr = std::shared_ptr<TransitionStatsSink>;

// --- TransitionableConnection ---

// The outermost, application-facing wrapper of every negotiated
// connection. It holds the *current* chunnel stack and, during a
// transition, the previous one; cutover() atomically swaps stacks at the
// epoch boundary while recv() keeps draining the old chain until it
// reports end-of-stream or the drain deadline passes. send() always uses
// the current stack, so the reply to a message drained from the old
// epoch flows out through the new one — exactly the paper's "chunnels
// are per-message" framing.
class TransitionableConnection final : public Connection {
 public:
  // `external_cutover` is true on the server, where cutover() is called
  // from the demux thread while the application may be blocked in
  // recv(): recv then slices its waits (tuning.idle_slice) so a swap is
  // noticed promptly. Client-side cutovers happen on the recv thread
  // itself, so no slicing is needed when idle.
  TransitionableConnection(ConnPtr initial, std::vector<NegotiatedNode> chain,
                           bool external_cutover, TransitionTuning tuning,
                           StatsSinkPtr stats = nullptr);
  ~TransitionableConnection() override;

  Result<void> send(Msg m) override;
  Result<Msg> recv(Deadline deadline) override;
  const Addr& local_addr() const override;
  const Addr& peer_addr() const override;
  void close() override;

  // Swap to `next` as the current stack; the previous stack drains until
  // `on_drained(forced, drained_msgs)` fires (exactly once, possibly
  // from a recv()ing application thread or from force_drain()).
  Result<void> cutover(uint64_t epoch, ConnPtr next,
                       std::vector<NegotiatedNode> new_chain,
                       std::function<void(bool, uint64_t)> on_drained);

  // Deadline enforcement (controller sweep). No-op unless draining.
  void force_drain();

  // Undo a cutover to `epoch` after the server rolled the offer back
  // (transition_cancel): the staged stack is closed and the previous
  // stack — which must still be draining — becomes current again. Fails
  // with not_found once the old stack has finished draining.
  Result<void> revert(uint64_t epoch);

  uint64_t epoch() const;
  std::vector<NegotiatedNode> chain() const;
  bool draining() const;
  // Messages recovered from old chains across all transitions so far.
  uint64_t drained_msgs() const;

 private:
  void finish_drain(bool forced);

  const bool external_cutover_;
  const TransitionTuning tuning_;
  StatsSinkPtr stats_;

  mutable std::mutex mu_;
  ConnPtr cur_;
  ConnPtr old_;  // non-null while draining
  std::vector<NegotiatedNode> chain_;
  // Pre-cutover chain/epoch, kept while old_ drains so revert() can
  // restore them.
  std::vector<NegotiatedNode> prev_chain_;
  uint64_t prev_epoch_ = 0;
  uint64_t epoch_ = 0;
  Deadline drain_deadline_ = Deadline::never();
  std::function<void(bool, uint64_t)> on_drained_;
  uint64_t drained_ = 0;        // current drain
  uint64_t drained_total_ = 0;  // lifetime
  bool closed_ = false;
};

// --- TransitionHost ---

// What the controller needs from a listener: enumerate live connections,
// start a transition, and run deadline sweeps. Implemented by
// Listener::Impl (core/endpoint.cpp).
class TransitionHost {
 public:
  virtual ~TransitionHost() = default;

  struct LiveConn {
    uint64_t token = 0;
    std::vector<NegotiatedNode> chain;
  };

  enum class Begin {
    started,    // offer sent, transition in flight
    unchanged,  // renegotiation picked the same chain
    busy,       // a transition for this connection is already in flight
  };

  virtual std::vector<LiveConn> live_connections() const = 0;

  // Late-activate on_listen hooks for chunnel impls registered after
  // listen() (e.g. an offload library loaded at runtime) so their
  // advertisements are visible to renegotiation. Returns true if any
  // advertisement changed.
  virtual bool refresh_advertisements() = 0;

  virtual Result<Begin> begin_transition(
      uint64_t token, TransitionReason reason,
      const std::vector<std::pair<std::string, std::string>>& banned,
      bool mandatory) = 0;

  // Retransmit pending offers, enforce ack and drain deadlines.
  virtual void sweep_transitions() = 0;

  virtual void bind_stats(StatsSinkPtr sink) = 0;
};

// --- TransitionController ---

// Owned by the Runtime. Subscribes to the discovery watch channel and,
// on deployment changes (or an explicit renegotiate_all / revoke_impl),
// re-runs negotiation for every live connection on every attached
// listener, driving the staged-cutover protocol above.
class TransitionController {
 public:
  explicit TransitionController(TransitionTuning tuning = {},
                                TracerPtr tracer = nullptr);
  ~TransitionController();

  TransitionController(const TransitionController&) = delete;
  TransitionController& operator=(const TransitionController&) = delete;

  const TransitionTuning& tuning() const { return tuning_; }
  StatsSinkPtr stats_sink() const { return sink_; }
  TransitionStats stats() const { return sink_->snapshot(); }

  // Listeners register themselves here when they start and detach when
  // they close. The controller never owns a host: detach() blocks until
  // no controller call on `host` is running, so the host (and the
  // runtime it may own, whose teardown joins the controller thread) is
  // never destroyed on the controller's thread. Must not be called from
  // inside a host callback.
  void attach(TransitionHost* host);
  void detach(TransitionHost* host);

  // Subscribe to `discovery` and run the watch/sweep thread.
  Result<void> start(DiscoveryClient& discovery);
  void stop();
  bool running() const;

  // Operator entry points. Return the number of transitions started.
  uint64_t renegotiate_all(
      TransitionReason reason = TransitionReason::policy_change);
  // Revocation: remove (type, name) from discovery, ban it from future
  // selection, and transition every connection using it (mandatory —
  // affected connections fall back or close *before* their slots free).
  uint64_t revoke_impl(DiscoveryClient& discovery, const std::string& type,
                       const std::string& name);

  // One sweep iteration; useful when the thread isn't running (tests).
  void poll();

 private:
  void run_loop();
  void handle_batch(const std::vector<WatchEvent>& events);
  // Starts transitions on all hosts; `use_filter` restricts to
  // connections whose chain uses (type, name).
  uint64_t trigger(TransitionReason reason, bool mandatory, bool use_filter,
                   const std::string& type, const std::string& name);
  // Calls `f` on each attached host, under host_calls_mu_.
  void for_each_host(const std::function<void(TransitionHost&)>& f);

  const TransitionTuning tuning_;
  StatsSinkPtr sink_;
  TracerPtr tracer_;

  // Held across every host call; detach() takes it to wait one out.
  std::mutex host_calls_mu_;
  mutable std::mutex mu_;
  std::vector<TransitionHost*> hosts_;
  std::vector<std::pair<std::string, std::string>> bans_;
  WatcherPtr watcher_;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace bertha
