#include "core/discovery_cache.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace bertha {

CachingDiscovery::CachingDiscovery(DiscoveryPtr inner, Options opts,
                                   FaultStatsPtr stats)
    : inner_(std::move(inner)), opts_(opts), stats_(std::move(stats)) {
  probe_thread_ = std::thread([this] { probe_loop(); });
}

CachingDiscovery::~CachingDiscovery() {
  std::vector<WatcherPtr> forwarders;
  std::vector<std::weak_ptr<DiscoveryWatcher>> watchers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    forwarders.swap(forwarders_);
    watchers.swap(watchers_);
  }
  probe_cv_.notify_all();
  // Cancelling an inner watcher waits out its sink, so no forward runs
  // against a dying cache.
  for (auto& w : forwarders) w->cancel();
  for (auto& w : watchers)
    if (auto sp = w.lock()) sp->cancel();
  if (probe_thread_.joinable()) probe_thread_.join();
}

bool CachingDiscovery::degraded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return degraded_;
}

void CachingDiscovery::note(bool healthy) {
  std::vector<WatcherPtr> notify;
  std::vector<PendingWrite> replay;
  WatchEvent ev;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (healthy == !degraded_) return;  // no edge
    degraded_ = !healthy;
    if (degraded_) {
      if (stats_) stats_->degraded_entries++;
      {
        Span s = trace_span(opts_.tracer, "discovery.degraded_enter",
                            current_trace_context());
      }
      BLOG(warn, "discovery") << "service unreachable; entering degraded "
                                 "mode (cached catalogue + local fallbacks)";
      probe_cv_.notify_all();
      return;
    }
    if (stats_) stats_->degraded_exits++;
    BLOG(info, "discovery") << "service reachable again; leaving degraded "
                               "mode";
    replay.swap(pending_writes_);
    // Synthetic event: kicks the transition controller into a refresh +
    // upgrade sweep so degraded connections renegotiate for real.
    ev.kind = WatchKind::impl_registered;
    ev.seq = ++seq_;
    ev.name = kDiscoveryRecoveredEvent;
    size_t live = 0;
    for (auto& w : watchers_) {
      auto sp = w.lock();
      if (!sp || sp->cancelled()) continue;
      watchers_[live++] = w;
      notify.push_back(std::move(sp));
    }
    watchers_.resize(live);
  }
  Span exit_span = trace_span(opts_.tracer, "discovery.degraded_exit");
  exit_span.tag_u64("replay_writes", replay.size());
  // Replay queued degraded-mode registrations before announcing recovery,
  // so the upgrade sweep the recovery event triggers sees them. A replay
  // that fails transiently re-queues everything left and re-enters
  // degraded mode — recovery was premature.
  for (size_t i = 0; i < replay.size(); i++) {
    Span s = trace_span(opts_.tracer, "discovery.replay_write",
                        exit_span.context());
    s.tag("type", replay[i].info.type);
    s.tag("impl", replay[i].info.name);
    auto r = inner_->register_impl(replay[i].info);
    if (!r.ok() && transient(r.error())) {
      s.tag("requeued", "1");
      {
        std::lock_guard<std::mutex> lk(mu_);
        pending_writes_.insert(pending_writes_.end(),
                               std::make_move_iterator(replay.begin() +
                                                       static_cast<long>(i)),
                               std::make_move_iterator(replay.end()));
      }
      exit_span.tag("aborted", "1");
      note(false);
      return;
    }
    metrics_add(opts_.metrics, "discovery.replayed_writes");
  }
  // Recorded before the event goes out: a watcher that wakes on it sees
  // the exit span.
  exit_span.finish();
  for (auto& w : notify)
    if (w->wants(ev)) w->deliver(ev);
}

size_t CachingDiscovery::pending_writes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_writes_.size();
}

void CachingDiscovery::probe_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stopping_) {
    if (!degraded_) {
      probe_cv_.wait(lk);
      continue;
    }
    lk.unlock();
    auto q = inner_->query(opts_.probe_type);
    note(q.ok() || !transient(q.error()));
    lk.lock();
    if (!stopping_ && degraded_)
      probe_cv_.wait_for(lk, opts_.probe_period);
  }
}

Result<std::vector<ImplInfo>> CachingDiscovery::settle_locked(
    const std::string& type, Result<std::vector<ImplInfo>> r) {
  if (r.ok()) {
    catalogue_[type] = r.value();
    return r;
  }
  if (!transient(r.error())) return r;  // the service answered, unhappily
  auto it = catalogue_.find(type);
  if (it != catalogue_.end()) {
    if (stats_) stats_->catalogue_hits++;
    return it->second;
  }
  return std::vector<ImplInfo>{};
}

Result<std::vector<ImplInfo>> CachingDiscovery::query(
    const std::string& type) {
  auto r = inner_->query(type);
  bool healthy = r.ok() || !transient(r.error());
  {
    std::lock_guard<std::mutex> lk(mu_);
    r = settle_locked(type, std::move(r));
  }
  note(healthy);
  return r;
}

DiscoveryClient::QueryOutcomes CachingDiscovery::query_many(
    const std::vector<std::string>& types) {
  auto rs = inner_->query_many(types);
  bool healthy = true;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < rs.size() && i < types.size(); i++) {
      if (!rs[i].ok() && transient(rs[i].error())) healthy = false;
      rs[i] = settle_locked(types[i], std::move(rs[i]));
    }
  }
  note(healthy);
  return rs;
}

Result<void> CachingDiscovery::register_impl(const ImplInfo& info) {
  auto r = inner_->register_impl(info);
  note(r.ok() || !transient(r.error()));
  if (r.ok() || !transient(r.error())) return r;
  if (info.type.empty() || info.name.empty()) return r;  // would be rejected
  // Service unreachable: accept the mutation locally. Queue it for replay
  // on recovery (latest-wins per type+name, mirroring the registry's
  // upsert) and fold it into the cached catalogue so degraded queries —
  // and the negotiations they feed — see the new impl immediately.
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = std::find_if(pending_writes_.begin(), pending_writes_.end(),
                           [&](const PendingWrite& w) {
                             return w.info.type == info.type &&
                                    w.info.name == info.name;
                           });
    if (it != pending_writes_.end()) it->info = info;
    else pending_writes_.push_back({info});
    auto& v = catalogue_[info.type];
    auto cit = std::find_if(v.begin(), v.end(), [&](const ImplInfo& e) {
      return e.name == info.name;
    });
    if (cit != v.end()) *cit = info;
    else v.push_back(info);
  }
  metrics_add(opts_.metrics, "discovery.queued_writes");
  Span s = trace_span(opts_.tracer, "discovery.queue_write",
                      current_trace_context());
  s.tag("type", info.type);
  s.tag("impl", info.name);
  return ok();
}

Result<void> CachingDiscovery::unregister_impl(const std::string& type,
                                               const std::string& name) {
  auto r = inner_->unregister_impl(type, name);
  note(r.ok() || !transient(r.error()));
  return r;
}

Result<uint64_t> CachingDiscovery::acquire(
    const std::vector<ResourceReq>& reqs) {
  auto r = inner_->acquire(reqs);
  note(r.ok() || !transient(r.error()));
  return r;
}

Result<void> CachingDiscovery::release(uint64_t alloc_id) {
  auto r = inner_->release(alloc_id);
  note(r.ok() || !transient(r.error()));
  return r;
}

Result<void> CachingDiscovery::set_pool(const std::string& pool,
                                        uint64_t capacity) {
  auto r = inner_->set_pool(pool, capacity);
  note(r.ok() || !transient(r.error()));
  return r;
}

Result<WatcherPtr> CachingDiscovery::watch(const std::string& type_filter) {
  auto local = std::make_shared<DiscoveryWatcher>(type_filter);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return err(Errc::cancelled, "discovery client closing");
    watchers_.push_back(local);
  }
  // Forward the inner client's event stream (server-push batches when the
  // inner client is remote) into the local watcher. Done outside mu_: a
  // remote subscribe handshake can block for an RPC timeout. An inner
  // client without watch support is fine — the local watcher still gets
  // synthetic recovery events.
  auto inner_w = inner_->watch(type_filter);
  if (inner_w.ok()) {
    WatcherPtr iw = std::move(inner_w).value();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) {
        iw->cancel();
        return err(Errc::cancelled, "discovery client closing");
      }
      forwarders_.push_back(iw);
    }
    // The inner stream's producer (the state's emit, or a remote
    // client's reader) runs the forward inline.
    iw->set_sink([this, local](std::vector<WatchEvent> batch) {
      apply_events(batch);
      std::vector<WatchEvent> fwd;
      for (auto& ev : batch)
        if (local->wants(ev)) fwd.push_back(std::move(ev));
      if (!fwd.empty()) local->deliver_batch(std::move(fwd));
    });
    local->on_cancel([iw] { iw->cancel(); });
  }
  return local;
}

void CachingDiscovery::apply_events(const std::vector<WatchEvent>& events) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& ev : events) {
    switch (ev.kind) {
      case WatchKind::impl_registered: {
        if (!ev.info) break;  // synthetic events carry no entry
        auto& v = catalogue_[ev.type];
        auto it = std::find_if(v.begin(), v.end(), [&](const ImplInfo& e) {
          return e.name == ev.name;
        });
        if (it != v.end()) *it = *ev.info;
        else v.push_back(*ev.info);
        break;
      }
      case WatchKind::impl_unregistered: {
        auto it = catalogue_.find(ev.type);
        if (it == catalogue_.end()) break;
        std::erase_if(it->second, [&](const ImplInfo& e) {
          return e.name == ev.name;
        });
        break;
      }
      case WatchKind::pool_freed:
        break;  // capacity is not cached
    }
  }
}

}  // namespace bertha
