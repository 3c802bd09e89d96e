#include "core/renegotiation.hpp"

#include <algorithm>
#include <map>

#include "trace/metrics.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace bertha {

uint64_t mint_epoch_salt(std::string_view server_identity) {
  return mix64(fnv1a64(server_identity)) << kEpochCounterBits;
}

// --- message serde ---

Bytes encode_transition(const TransitionMsg& m) {
  Writer w;
  w.put_varint(m.epoch);
  w.put_varint(m.new_token);
  w.put_u8(static_cast<uint8_t>(m.reason));
  w.put_bool(m.mandatory);
  serde_put(w, m.chain);
  w.put_varint(m.chain_digest);
  put_trace_context(w, m.trace);
  return std::move(w).take();
}

Result<TransitionMsg> decode_transition(BytesView b) {
  Reader r(b);
  TransitionMsg m;
  BERTHA_TRY_ASSIGN(epoch, r.get_varint());
  BERTHA_TRY_ASSIGN(tok, r.get_varint());
  BERTHA_TRY_ASSIGN(reason, r.get_u8());
  if (reason < 1 || reason > 3)
    return err(Errc::protocol_error, "bad transition reason");
  BERTHA_TRY_ASSIGN(mandatory, r.get_bool());
  BERTHA_TRY_ASSIGN(chain, serde_get<std::vector<NegotiatedNode>>(r));
  BERTHA_TRY_ASSIGN(digest, r.get_varint());
  m.epoch = epoch;
  m.new_token = tok;
  m.reason = static_cast<TransitionReason>(reason);
  m.mandatory = mandatory;
  m.chain = std::move(chain);
  m.chain_digest = digest;
  m.trace = read_trace_context_tail(r);
  return m;
}

Bytes encode_transition_ack(const TransitionAckMsg& m) {
  Writer w;
  w.put_varint(m.epoch);
  w.put_bool(m.accepted);
  w.put_u8(m.errc);
  w.put_string(m.reason);
  return std::move(w).take();
}

Result<TransitionAckMsg> decode_transition_ack(BytesView b) {
  Reader r(b);
  TransitionAckMsg m;
  BERTHA_TRY_ASSIGN(epoch, r.get_varint());
  BERTHA_TRY_ASSIGN(accepted, r.get_bool());
  BERTHA_TRY_ASSIGN(ec, r.get_u8());
  BERTHA_TRY_ASSIGN(reason, r.get_string());
  m.epoch = epoch;
  m.accepted = accepted;
  m.errc = ec;
  m.reason = std::move(reason);
  return m;
}

Bytes encode_transition_cancel(const TransitionCancelMsg& m) {
  Writer w;
  w.put_varint(m.epoch);
  put_trace_context(w, m.trace);
  return std::move(w).take();
}

Result<TransitionCancelMsg> decode_transition_cancel(BytesView b) {
  Reader r(b);
  TransitionCancelMsg m;
  BERTHA_TRY_ASSIGN(epoch, r.get_varint());
  m.epoch = epoch;
  m.trace = read_trace_context_tail(r);
  return m;
}

// --- TransitionableConnection ---

TransitionableConnection::TransitionableConnection(
    ConnPtr initial, std::vector<NegotiatedNode> chain, bool external_cutover,
    TransitionTuning tuning, StatsSinkPtr stats)
    : external_cutover_(external_cutover),
      tuning_(tuning),
      stats_(std::move(stats)),
      cur_(std::move(initial)),
      chain_(std::move(chain)) {}

TransitionableConnection::~TransitionableConnection() { close(); }

Result<void> TransitionableConnection::send(Msg m) {
  ConnPtr cur;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return err(Errc::cancelled, "connection closed");
    cur = cur_;
  }
  return cur->send(std::move(m));
}

Result<Msg> TransitionableConnection::recv(Deadline deadline) {
  for (;;) {
    ConnPtr cur, old;
    Deadline drain_dl = Deadline::never();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return err(Errc::cancelled, "connection closed");
      cur = cur_;
      old = old_;
      drain_dl = drain_deadline_;
    }

    if (old) {
      // Draining: alternate between the old chain (which still carries
      // in-flight pre-cutover messages) and the new one at a fine slice.
      auto r = old->recv(Deadline::after(tuning_.drain_slice));
      if (r.ok()) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          drained_++;
          drained_total_++;
        }
        return r;
      }
      if (r.error().code != Errc::timed_out) {
        finish_drain(false);  // old chain reports end-of-stream
      } else if (drain_dl.expired()) {
        finish_drain(true);
      }
      Duration slice = tuning_.drain_slice;
      if (!deadline.is_never() && deadline.remaining() < slice)
        slice = deadline.remaining();
      auto r2 = cur->recv(Deadline::after(slice));
      if (r2.ok()) return r2;
      if (r2.error().code != Errc::timed_out) {
        std::lock_guard<std::mutex> lk(mu_);
        if (cur_ == cur && !closed_) return r2;  // genuine error
        continue;                                // swapped under us; retry
      }
      if (deadline.expired())
        return err(Errc::timed_out, "recv deadline expired");
      continue;
    }

    // Idle path. Server-side cutovers arrive from the demux thread while
    // we may be blocked here, so slice the wait; the client swaps on this
    // very thread (the transition handler runs inside cur->recv) and can
    // pass the caller's deadline straight through.
    Deadline slice = deadline;
    if (external_cutover_ &&
        (deadline.is_never() || deadline.remaining() > tuning_.idle_slice))
      slice = Deadline::after(tuning_.idle_slice);
    auto r = cur->recv(slice);
    if (r.ok()) return r;
    if (r.error().code == Errc::timed_out) {
      if (deadline.expired())
        return err(Errc::timed_out, "recv deadline expired");
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!closed_ && (cur_ != cur || old_ != nullptr))
        continue;  // a cutover raced the error; re-evaluate
    }
    return r;
  }
}

const Addr& TransitionableConnection::local_addr() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cur_->local_addr();
}

const Addr& TransitionableConnection::peer_addr() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cur_->peer_addr();
}

void TransitionableConnection::close() {
  ConnPtr cur, old;
  std::function<void(bool, uint64_t)> cb;
  uint64_t drained;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return;
    closed_ = true;
    cur = std::move(cur_);
    old = std::move(old_);
    cb = std::move(on_drained_);
    drained = drained_;
    cur_ = cur;  // keep non-null for local_addr()/peer_addr()
  }
  if (cb) cb(true, drained);
  if (old) old->close();
  if (cur) cur->close();
}

Result<void> TransitionableConnection::cutover(
    uint64_t epoch, ConnPtr next, std::vector<NegotiatedNode> new_chain,
    std::function<void(bool, uint64_t)> on_drained) {
  if (!next) return err(Errc::invalid_argument, "null next stack");
  // A transition arriving while the previous drain is still open forces
  // the previous one closed first (epochs are serialized by the server,
  // so this only happens when drains outlast the offer cadence).
  force_drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return err(Errc::cancelled, "connection closed");
    if (epoch <= epoch_ && epoch_ != 0)
      return err(Errc::invalid_argument, "stale transition epoch");
    old_ = std::move(cur_);
    cur_ = std::move(next);
    prev_chain_ = std::move(chain_);
    prev_epoch_ = epoch_;
    chain_ = std::move(new_chain);
    epoch_ = epoch;
    drain_deadline_ = Deadline::after(tuning_.drain_timeout);
    on_drained_ = std::move(on_drained);
    drained_ = 0;
  }
  return ok();
}

Result<void> TransitionableConnection::revert(uint64_t epoch) {
  ConnPtr aborted;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return err(Errc::cancelled, "connection closed");
    if (epoch_ != epoch)
      return err(Errc::invalid_argument, "revert epoch mismatch");
    if (!old_)
      return err(Errc::not_found,
                 "previous stack already drained; cannot revert");
    aborted = std::move(cur_);
    cur_ = std::move(old_);
    old_ = nullptr;
    chain_ = std::move(prev_chain_);
    epoch_ = prev_epoch_;
    prev_chain_.clear();
    drain_deadline_ = Deadline::never();
    on_drained_ = nullptr;
    drained_ = 0;
  }
  if (stats_) stats_->update([](TransitionStats& s) { s.reverts++; });
  aborted->close();
  return ok();
}

void TransitionableConnection::force_drain() {
  bool doit;
  {
    std::lock_guard<std::mutex> lk(mu_);
    doit = old_ != nullptr;
  }
  if (doit) finish_drain(true);
}

void TransitionableConnection::finish_drain(bool forced) {
  ConnPtr old;
  std::function<void(bool, uint64_t)> cb;
  uint64_t drained;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!old_) return;  // someone else finished it
    old = std::move(old_);
    old_ = nullptr;
    cb = std::move(on_drained_);
    on_drained_ = nullptr;
    drained = drained_;
  }
  // Callback before closing the old stack: the server-side callback
  // erases transition records and releases retired slots, and the old
  // stack's close() sends the old token's fin through the normal path.
  if (cb) cb(forced, drained);
  old->close();
}

uint64_t TransitionableConnection::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

std::vector<NegotiatedNode> TransitionableConnection::chain() const {
  std::lock_guard<std::mutex> lk(mu_);
  return chain_;
}

bool TransitionableConnection::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return old_ != nullptr;
}

uint64_t TransitionableConnection::drained_msgs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return drained_total_;
}

void attach_transition_stats_provider(
    MetricsRegistry& m, std::shared_ptr<TransitionStatsSink> sink) {
  if (!sink) return;
  m.attach_provider("transition_stats",
                    [sink](MetricsRegistry::Snapshot& snap) {
    TransitionStats s = sink->snapshot();
    auto& c = snap.counters;
    c["transition.watch_events"] = s.watch_events;
    c["transition.watch_batches"] = s.watch_batches;
    c["transition.upgrade_runs"] = s.upgrade_runs;
    c["transition.dead_epoch_closes"] = s.dead_epoch_closes;
    c["transition.offers_sent"] = s.offers_sent;
    c["transition.completed"] = s.completed;
    c["transition.declined"] = s.declined;
    c["transition.rolled_back"] = s.rolled_back;
    c["transition.forced_cutovers"] = s.forced_cutovers;
    c["transition.closed_mandatory"] = s.closed_mandatory;
    c["transition.cancels_sent"] = s.cancels_sent;
    c["transition.reverts"] = s.reverts;
    c["transition.drained_msgs"] = s.drained_msgs;
    snap.gauges["transition.max_cutover_ns"] =
        static_cast<double>(s.max_cutover_ns);
    snap.gauges["transition.mean_cutover_ns"] =
        s.completed ? static_cast<double>(s.total_cutover_ns) /
                          static_cast<double>(s.completed)
                    : 0.0;
  });
}

// --- TransitionController ---

TransitionController::TransitionController(TransitionTuning tuning,
                                           TracerPtr tracer)
    : tuning_(tuning),
      sink_(std::make_shared<TransitionStatsSink>()),
      tracer_(std::move(tracer)) {}

TransitionController::~TransitionController() { stop(); }

void TransitionController::attach(TransitionHost* host) {
  if (!host) return;
  host->bind_stats(sink_);
  std::lock_guard<std::mutex> lk(mu_);
  hosts_.push_back(host);
}

void TransitionController::detach(TransitionHost* host) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::erase(hosts_, host);
  }
  std::lock_guard<std::mutex> wait(host_calls_mu_);
}

void TransitionController::for_each_host(
    const std::function<void(TransitionHost&)>& f) {
  std::lock_guard<std::mutex> calls(host_calls_mu_);
  std::vector<TransitionHost*> hosts;
  {
    std::lock_guard<std::mutex> lk(mu_);
    hosts = hosts_;
  }
  for (TransitionHost* host : hosts) f(*host);
}

Result<void> TransitionController::start(DiscoveryClient& discovery) {
  // Some clients can't watch (no watch support, or a service that never
  // acks the subscribe); without a watcher the controller still sweeps
  // deadlines and serves explicit renegotiate_all()/revoke_impl() calls.
  WatcherPtr w;
  auto w_r = discovery.watch("");
  if (w_r.ok()) {
    w = std::move(w_r).value();
  } else {
    BLOG(info, "transition") << "discovery watch unavailable ("
                             << w_r.error().to_string()
                             << "); sweeping without watch events";
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (running_) {
    if (w) w->cancel();
    return err(Errc::already_exists, "transition controller already running");
  }
  watcher_ = std::move(w);
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
  return ok();
}

void TransitionController::stop() {
  std::thread t;
  WatcherPtr w;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    running_ = false;
    w = std::move(watcher_);
    t = std::move(thread_);
  }
  if (w) w->cancel();
  if (t.joinable()) t.join();
}

bool TransitionController::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return running_;
}

void TransitionController::run_loop() {
  for (;;) {
    WatcherPtr w;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!running_) return;
      w = watcher_;
    }
    if (w) {
      auto ev = w->next_batch(Deadline::after(tuning_.sweep_period));
      if (ev.ok()) {
        // Fold queued-up batches in too (concurrent registrations that
        // missed the server's coalescing window): the whole burst is one
        // unit — one negotiation re-run, however many events arrived.
        std::vector<WatchEvent> events = std::move(ev).value();
        while (auto more = w->try_next_batch())
          events.insert(events.end(), std::make_move_iterator(more->begin()),
                        std::make_move_iterator(more->end()));
        handle_batch(events);
      } else if (ev.error().code == Errc::cancelled) {
        // Watch source gone (or stop()); keep sweeping if still running.
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_) return;
        watcher_ = nullptr;
      }
    } else {
      sleep_for(tuning_.sweep_period);
    }
    poll();
  }
}

void TransitionController::poll() {
  for_each_host([](TransitionHost& h) { h.sweep_transitions(); });
}

void TransitionController::handle_batch(const std::vector<WatchEvent>& events) {
  if (events.empty()) return;
  Span batch_span = trace_span(tracer_, "controller.watch_batch");
  batch_span.tag_u64("events", events.size());
  SpanScope scope(batch_span);  // transitions started below join this trace
  sink_->update([&](TransitionStats& s) {
    s.watch_events += events.size();
    s.watch_batches++;
  });
  // Net out the burst: the last impl event per (type, name) wins, so a
  // register+unregister pair inside one batch acts as the unregister and
  // an operator loading a whole offload catalogue costs one selection
  // re-run instead of one per entry.
  bool any_upgrade = false;
  bool refresh = false;
  std::map<std::pair<std::string, std::string>, WatchKind> net;
  for (const auto& ev : events) {
    if (ev.kind == WatchKind::pool_freed) {
      any_upgrade = true;
      continue;
    }
    net[{ev.type, ev.name}] = ev.kind;
  }
  std::vector<std::pair<std::string, std::string>> revoked;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [key, kind] : net) {
      if (kind == WatchKind::impl_registered) {
        // Re-registration lifts a standing ban.
        bans_.erase(std::remove_if(bans_.begin(), bans_.end(),
                                   [&key = key](const auto& b) {
                                     return b == key;
                                   }),
                    bans_.end());
        any_upgrade = true;
        refresh = true;
      } else {
        bans_.push_back(key);
        revoked.push_back(key);
      }
    }
  }
  if (refresh)
    for_each_host([](TransitionHost& h) { h.refresh_advertisements(); });
  // Revocations first (mandatory, per impl) so affected connections are
  // forced off the vanished impls before the opportunistic upgrade pass
  // finds them busy.
  for (const auto& [type, name] : revoked)
    trigger(TransitionReason::revocation, /*mandatory=*/true,
            /*use_filter=*/true, type, name);
  if (any_upgrade) {
    sink_->update([](TransitionStats& s) { s.upgrade_runs++; });
    trigger(TransitionReason::upgrade, /*mandatory=*/false,
            /*use_filter=*/false, "", "");
  }
}

uint64_t TransitionController::trigger(TransitionReason reason, bool mandatory,
                                       bool use_filter, const std::string& type,
                                       const std::string& name) {
  std::vector<std::pair<std::string, std::string>> bans;
  {
    std::lock_guard<std::mutex> lk(mu_);
    bans = bans_;
  }
  uint64_t started = 0;
  for_each_host([&](TransitionHost& h) {
    for (const auto& c : h.live_connections()) {
      if (use_filter) {
        bool uses = false;
        for (const auto& n : c.chain)
          uses |= n.type == type && n.impl_name == name;
        if (!uses) continue;
      }
      auto r = h.begin_transition(c.token, reason, bans, mandatory);
      if (r.ok() && r.value() == TransitionHost::Begin::started) started++;
    }
  });
  return started;
}

uint64_t TransitionController::renegotiate_all(TransitionReason reason) {
  for_each_host([](TransitionHost& h) { h.refresh_advertisements(); });
  return trigger(reason, /*mandatory=*/false, /*use_filter=*/false, "", "");
}

uint64_t TransitionController::revoke_impl(DiscoveryClient& discovery,
                                           const std::string& type,
                                           const std::string& name) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    bans_.emplace_back(type, name);
  }
  // Trigger before unregistering: fallback starts while the impl is
  // still advertised, and the count reflects this call rather than
  // racing the watch thread (unregister_impl emits impl_unregistered,
  // whose trigger then finds the same connections busy and no-ops).
  uint64_t started = trigger(TransitionReason::revocation, /*mandatory=*/true,
                             /*use_filter=*/true, type, name);
  (void)discovery.unregister_impl(type, name);
  return started;
}

}  // namespace bertha
