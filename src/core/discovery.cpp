#include "core/discovery.hpp"

#include <algorithm>

#include "chunnels/shard.hpp"
#include "core/wire.hpp"
#include "io/reactor.hpp"
#include "io/timer_wheel.hpp"
#include "util/log.hpp"

namespace bertha {

// --- Registry ---

Result<void> Registry::register_impl(ChunnelImplPtr impl) {
  if (!impl) return err(Errc::invalid_argument, "null chunnel impl");
  const ImplInfo& info = impl->info();
  if (info.type.empty() || info.name.empty())
    return err(Errc::invalid_argument, "chunnel impl missing type/name");
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto& by_name = impls_[info.type];
    if (by_name.count(info.name))
      return err(Errc::already_exists, "impl already registered: " + info.name);
    by_name[info.name] = impl;
  }
  BERTHA_TRY(impl->init());
  BLOG(debug, "registry") << "registered " << info.name;
  return ok();
}

Result<void> Registry::unregister_impl(const std::string& type,
                                       const std::string& name) {
  ChunnelImplPtr removed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = impls_.find(type);
    if (it == impls_.end()) return err(Errc::not_found, "no such type: " + type);
    auto nit = it->second.find(name);
    if (nit == it->second.end())
      return err(Errc::not_found, "no such impl: " + name);
    removed = nit->second;
    it->second.erase(nit);
  }
  removed->teardown();
  return ok();
}

Result<ChunnelImplPtr> Registry::lookup(const std::string& type,
                                        const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = impls_.find(type);
  if (it == impls_.end()) return err(Errc::not_found, "no impls for " + type);
  auto nit = it->second.find(name);
  if (nit != it->second.end()) return nit->second;
  // Parameterized network offloads are advertised with an instance
  // suffix ("ordered_mcast/switch:sim://g:7"); the local factory is
  // registered under the base name ("ordered_mcast/switch").
  auto colon = name.find(':');
  if (colon != std::string::npos) {
    nit = it->second.find(name.substr(0, colon));
    if (nit != it->second.end()) return nit->second;
  }
  return err(Errc::not_found, "no local factory for " + name);
}

std::vector<ChunnelImplPtr> Registry::lookup_type(const std::string& type) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ChunnelImplPtr> out;
  auto it = impls_.find(type);
  if (it != impls_.end())
    for (const auto& [name, impl] : it->second) out.push_back(impl);
  return out;
}

std::vector<ImplInfo> Registry::infos_for(const std::string& type) const {
  std::vector<ImplInfo> out;
  for (const auto& impl : lookup_type(type)) out.push_back(impl->info());
  return out;
}

std::vector<std::string> Registry::types() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(impls_.size());
  for (const auto& [type, by_name] : impls_) out.push_back(type);
  return out;
}

bool Registry::has(const std::string& type, const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = impls_.find(type);
  return it != impls_.end() && it->second.count(name) > 0;
}

// --- DiscoveryWatcher ---

DiscoveryWatcher::DiscoveryWatcher(std::string type_filter, size_t capacity)
    : filter_(std::move(type_filter)), q_(capacity) {}

void DiscoveryWatcher::set_sink(Sink sink) {
  std::lock_guard<std::recursive_mutex> lk(sink_mu_);
  sink_ = std::move(sink);
  while (auto batch = try_next_batch()) {
    if (!q_.closed()) sink_(std::move(*batch));
  }
}

void DiscoveryWatcher::cancel() {
  q_.close();
  {
    // Waits out a sink call in flight (or is re-entered from it).
    std::lock_guard<std::recursive_mutex> lk(sink_mu_);
  }
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    hooks.swap(on_cancel_);
  }
  for (auto& fn : hooks) fn();
}

void DiscoveryWatcher::on_cancel(std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!q_.closed()) return on_cancel_.push_back(std::move(fn));
  lk.unlock();
  fn();
}

Result<WatchEvent> DiscoveryWatcher::next(Deadline deadline) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!buffer_.empty()) {
        WatchEvent ev = std::move(buffer_.front());
        buffer_.pop_front();
        return ev;
      }
    }
    BERTHA_TRY_ASSIGN(batch, q_.pop(deadline));
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& ev : batch) buffer_.push_back(std::move(ev));
  }
}

std::optional<WatchEvent> DiscoveryWatcher::try_next() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!buffer_.empty()) {
        WatchEvent ev = std::move(buffer_.front());
        buffer_.pop_front();
        return ev;
      }
    }
    auto batch = q_.try_pop();
    if (!batch) return std::nullopt;
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& ev : *batch) buffer_.push_back(std::move(ev));
  }
}

Result<std::vector<WatchEvent>> DiscoveryWatcher::next_batch(
    Deadline deadline) {
  {
    // A batch partially consumed through next() comes out first so no
    // consumer mix ever reorders events.
    std::lock_guard<std::mutex> lk(mu_);
    if (!buffer_.empty()) {
      std::vector<WatchEvent> out(std::make_move_iterator(buffer_.begin()),
                                  std::make_move_iterator(buffer_.end()));
      buffer_.clear();
      return out;
    }
  }
  return q_.pop(deadline);
}

std::optional<std::vector<WatchEvent>> DiscoveryWatcher::try_next_batch() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!buffer_.empty()) {
      std::vector<WatchEvent> out(std::make_move_iterator(buffer_.begin()),
                                  std::make_move_iterator(buffer_.end()));
      buffer_.clear();
      return out;
    }
  }
  return q_.try_pop();
}

uint64_t DiscoveryWatcher::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

bool DiscoveryWatcher::matches(const std::string& filter,
                               const WatchEvent& ev) {
  if (filter.empty()) return true;
  // Typed watchers see impl events for their type; pool capacity is not
  // owned by any one chunnel type, so pool events go to unfiltered
  // watchers only.
  return ev.kind != WatchKind::pool_freed && ev.type == filter;
}

void DiscoveryWatcher::deliver(const WatchEvent& ev) {
  deliver_batch(std::vector<WatchEvent>{ev});
}

void DiscoveryWatcher::deliver_batch(std::vector<WatchEvent> events) {
  if (events.empty()) return;
  // The sink check and the (non-blocking) push are one step against
  // set_sink's set-and-drain: a batch queued after that drain would
  // never reach the sink.
  std::lock_guard<std::recursive_mutex> sink_lk(sink_mu_);
  if (sink_) {
    if (!q_.closed()) sink_(std::move(events));
    return;
  }
  size_t n = events.size();
  if (!q_.push(std::move(events)).ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    dropped_ += n;
  }
}

// --- DiscoveryState ---

DiscoveryState::~DiscoveryState() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  sweep_gate_.close();
  // Watchers may outlive the state (e.g. the runtime shut down first);
  // wake them with cancelled instead of leaving next() blocked forever.
  std::vector<std::weak_ptr<DiscoveryWatcher>> watchers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    watchers.swap(watchers_);
  }
  for (auto& w : watchers)
    if (auto sp = w.lock()) sp->cancel();
}

void DiscoveryState::emit(WatchEvent ev) {
  ev.seq = ++watch_seq_;
  size_t live = 0;
  for (auto& w : watchers_) {
    auto sp = w.lock();
    if (!sp || sp->cancelled()) continue;
    watchers_[live++] = w;
    if (sp->wants(ev)) sp->deliver(ev);
  }
  watchers_.resize(live);
}

Result<WatcherPtr> DiscoveryState::watch(const std::string& type_filter) {
  auto w = std::make_shared<DiscoveryWatcher>(type_filter);
  std::lock_guard<std::mutex> lk(mu_);
  watchers_.push_back(w);
  return w;
}

Result<void> DiscoveryState::register_impl(const ImplInfo& info) {
  std::lock_guard<std::mutex> lk(mu_);
  return register_impl_locked(info);
}

Result<void> DiscoveryState::register_impl_locked(const ImplInfo& info) {
  if (info.type.empty() || info.name.empty())
    return err(Errc::invalid_argument, "impl info missing type/name");
  auto& v = entries_[info.type];
  ImplInfo* slot = nullptr;
  for (auto& e : v) {
    if (e.name == info.name) {
      e = info;  // re-registration updates metadata
      slot = &e;
      break;
    }
  }
  if (!slot) {
    v.push_back(info);
    slot = &v.back();
  }
  WatchEvent ev;
  ev.kind = WatchKind::impl_registered;
  ev.type = info.type;
  ev.name = info.name;
  ev.info = *slot;
  emit(std::move(ev));
  return ok();
}

Result<void> DiscoveryState::unregister_impl(const std::string& type,
                                             const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return unregister_impl_locked(type, name);
}

Result<void> DiscoveryState::unregister_impl_locked(const std::string& type,
                                                    const std::string& name) {
  auto it = entries_.find(type);
  if (it == entries_.end()) return err(Errc::not_found, "no such type: " + type);
  auto& v = it->second;
  auto nit = std::find_if(v.begin(), v.end(),
                          [&](const ImplInfo& e) { return e.name == name; });
  if (nit == v.end()) return err(Errc::not_found, "no such impl: " + name);
  v.erase(nit);
  WatchEvent ev;
  ev.kind = WatchKind::impl_unregistered;
  ev.type = type;
  ev.name = name;
  emit(std::move(ev));
  return ok();
}

Result<std::vector<ImplInfo>> DiscoveryState::query(const std::string& type) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(type);
  if (it == entries_.end()) return std::vector<ImplInfo>{};
  return it->second;
}

Result<uint64_t> DiscoveryState::acquire(const std::vector<ResourceReq>& reqs) {
  std::lock_guard<std::mutex> lk(mu_);
  return acquire_locked(reqs);
}

Result<uint64_t> DiscoveryState::acquire_locked(
    const std::vector<ResourceReq>& reqs) {
  // Validate the whole set, then commit — all or nothing.
  for (const auto& r : reqs) {
    auto it = pools_.find(r.pool);
    if (it == pools_.end())
      return err(Errc::not_found, "no such resource pool: " + r.pool);
    if (it->second.used + r.amount > it->second.capacity)
      return err(Errc::resource_exhausted, "pool exhausted: " + r.pool);
  }
  for (const auto& r : reqs) pools_[r.pool].used += r.amount;
  uint64_t id = next_alloc_++;
  allocs_[id] = reqs;
  return id;
}

Result<void> DiscoveryState::release(uint64_t alloc_id) {
  std::lock_guard<std::mutex> lk(mu_);
  return release_locked(alloc_id);
}

Result<void> DiscoveryState::release_locked(uint64_t alloc_id) {
  auto it = allocs_.find(alloc_id);
  if (it == allocs_.end())
    return err(Errc::not_found, "unknown allocation id");
  for (const auto& r : it->second) {
    auto pit = pools_.find(r.pool);
    if (pit == pools_.end()) continue;
    pit->second.used -= std::min(pit->second.used, r.amount);
    WatchEvent ev;
    ev.kind = WatchKind::pool_freed;
    ev.pool = r.pool;
    ev.available = pit->second.capacity - pit->second.used;
    emit(std::move(ev));
  }
  allocs_.erase(it);
  return ok();
}

Result<void> DiscoveryState::set_pool(const std::string& pool, uint64_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& p = pools_[pool];
  uint64_t before_avail = p.capacity > p.used ? p.capacity - p.used : 0;
  p.capacity = capacity;
  uint64_t after_avail = p.capacity > p.used ? p.capacity - p.used : 0;
  if (after_avail > before_avail) {
    // Growing a pool frees capacity just like releasing an allocation.
    WatchEvent ev;
    ev.kind = WatchKind::pool_freed;
    ev.pool = pool;
    ev.available = after_avail;
    emit(std::move(ev));
  }
  return ok();
}

uint64_t DiscoveryState::pool_in_use(const std::string& pool) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pools_.find(pool);
  return it == pools_.end() ? 0 : it->second.used;
}

uint64_t DiscoveryState::pool_capacity(const std::string& pool) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pools_.find(pool);
  return it == pools_.end() ? 0 : it->second.capacity;
}

size_t DiscoveryState::live_allocs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return allocs_.size();
}

size_t DiscoveryState::lease_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return leases_.size();
}

void DiscoveryState::set_fault_stats(FaultStatsPtr stats) {
  std::lock_guard<std::mutex> lk(mu_);
  fault_stats_ = std::move(stats);
}

FaultStatsPtr DiscoveryState::fault_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fault_stats_;
}

std::pair<std::vector<ImplInfo>, uint64_t> DiscoveryState::catalogue_snapshot()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ImplInfo> all;
  for (const auto& [type, v] : entries_)
    all.insert(all.end(), v.begin(), v.end());
  return {std::move(all), watch_seq_};
}

DiscoverySnapshot DiscoveryState::export_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  DiscoverySnapshot snap;
  for (const auto& [type, v] : entries_)
    snap.impls.insert(snap.impls.end(), v.begin(), v.end());
  // Deterministic order (the maps are unordered): a snapshot's bytes
  // should not depend on which peer served it.
  std::sort(snap.impls.begin(), snap.impls.end(),
            [](const ImplInfo& a, const ImplInfo& b) {
              return std::tie(a.type, a.name) < std::tie(b.type, b.name);
            });
  for (const auto& [name, p] : pools_)
    snap.pools.push_back({name, p.capacity, p.used});
  std::sort(snap.pools.begin(), snap.pools.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  for (const auto& [id, reqs] : allocs_) snap.allocs.push_back({id, reqs});
  std::sort(snap.allocs.begin(), snap.allocs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  snap.next_alloc = next_alloc_;
  for (const auto& [owner, l] : leases_) {
    DiscoverySnapshot::LeaseEntry e;
    e.owner = owner;
    e.ttl_ns = l.ttl.count();
    e.expires_ns = l.expires.time_since_epoch().count();
    e.impls = l.impls;
    e.allocs = l.allocs;
    snap.leases.push_back(std::move(e));
  }
  std::sort(snap.leases.begin(), snap.leases.end(),
            [](const auto& a, const auto& b) { return a.owner < b.owner; });
  snap.watch_seq = watch_seq_;
  return snap;
}

void DiscoveryState::install_snapshot(const DiscoverySnapshot& snap) {
  std::lock_guard<std::mutex> lk(mu_);
  entries_.clear();
  for (const auto& info : snap.impls) entries_[info.type].push_back(info);
  pools_.clear();
  for (const auto& p : snap.pools) pools_[p.name] = Pool{p.capacity, p.used};
  allocs_.clear();
  for (const auto& a : snap.allocs) allocs_[a.id] = a.reqs;
  next_alloc_ = snap.next_alloc;
  leases_.clear();
  for (const auto& e : snap.leases) {
    Lease l;
    l.ttl = Duration(e.ttl_ns);
    l.expires = TimePoint(
        std::chrono::duration_cast<TimePoint::duration>(Duration(e.expires_ns)));
    l.impls = e.impls;
    l.allocs = e.allocs;
    leases_[e.owner] = std::move(l);
  }
  // Adopt the peer's event history position verbatim; no events are
  // emitted, so watchers resume by seq against the installed log.
  watch_seq_ = snap.watch_seq;
  arm_sweep_locked();
}

DiscoverySnapshot DiscoveryState::extract_range(uint64_t modulo,
                                                uint64_t range) {
  auto in_range = [&](const std::string& key) {
    return shard_pick(BytesView(reinterpret_cast<const uint8_t*>(key.data()),
                                key.size()),
                      static_cast<size_t>(modulo)) == range;
  };
  std::lock_guard<std::mutex> lk(mu_);
  DiscoverySnapshot snap;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (in_range(it->first)) {
      snap.impls.insert(snap.impls.end(), it->second.begin(), it->second.end());
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(snap.impls.begin(), snap.impls.end(),
            [](const ImplInfo& a, const ImplInfo& b) {
              return std::tie(a.type, a.name) < std::tie(b.type, b.name);
            });
  for (auto it = pools_.begin(); it != pools_.end();) {
    if (in_range(it->first)) {
      snap.pools.push_back({it->first, it->second.capacity, it->second.used});
      it = pools_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(snap.pools.begin(), snap.pools.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  // An allocation migrates with its pools — all of them must be in the
  // range (a multi-pool alloc straddling buckets stays put; see the
  // DESIGN.md §12 caveat — its namespaced id still routes to this
  // partition, which keeps releases consistent).
  std::vector<uint64_t> moved_ids;
  for (auto it = allocs_.begin(); it != allocs_.end();) {
    bool all = !it->second.empty();
    for (const auto& r : it->second) all = all && in_range(r.pool);
    if (all) {
      snap.allocs.push_back({it->first, it->second});
      moved_ids.push_back(it->first);
      it = allocs_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(snap.allocs.begin(), snap.allocs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  std::sort(moved_ids.begin(), moved_ids.end());
  // next_alloc stays: the destination mints under its own namespace.
  snap.next_alloc = next_alloc_;
  // Lease rows split per key: the owner keeps a row on both sides, each
  // covering the impls/allocs that live there (heartbeats fan out to
  // every partition, so both rows stay refreshed).
  for (auto it = leases_.begin(); it != leases_.end();) {
    Lease& l = it->second;
    DiscoverySnapshot::LeaseEntry e;
    e.owner = it->first;
    e.ttl_ns = l.ttl.count();
    e.expires_ns = l.expires.time_since_epoch().count();
    for (const auto& im : l.impls)
      if (in_range(im.first)) e.impls.push_back(im);
    for (uint64_t id : l.allocs)
      if (std::binary_search(moved_ids.begin(), moved_ids.end(), id))
        e.allocs.push_back(id);
    if (!e.impls.empty() || !e.allocs.empty()) {
      l.impls.erase(std::remove_if(l.impls.begin(), l.impls.end(),
                                   [&](const auto& im) {
                                     return in_range(im.first);
                                   }),
                    l.impls.end());
      l.allocs.erase(
          std::remove_if(l.allocs.begin(), l.allocs.end(),
                         [&](uint64_t id) {
                           return std::binary_search(moved_ids.begin(),
                                                     moved_ids.end(), id);
                         }),
          l.allocs.end());
      snap.leases.push_back(std::move(e));
    }
    if (l.impls.empty() && l.allocs.empty())
      it = leases_.erase(it);
    else
      ++it;
  }
  std::sort(snap.leases.begin(), snap.leases.end(),
            [](const auto& a, const auto& b) { return a.owner < b.owner; });
  snap.watch_seq = watch_seq_;
  return snap;
}

void DiscoveryState::ingest_snapshot(const DiscoverySnapshot& snap,
                                     bool emit_events) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ImplInfo> added;
  for (const auto& info : snap.impls) {
    auto& v = entries_[info.type];
    bool dup = false;
    for (const auto& e : v) dup = dup || e.name == info.name;
    if (!dup) {
      v.push_back(info);
      if (emit_events) added.push_back(info);
    }
  }
  for (const auto& p : snap.pools) pools_[p.name] = Pool{p.capacity, p.used};
  for (const auto& a : snap.allocs) allocs_[a.id] = a.reqs;
  // Keep our own next_alloc_: ids stay namespaced by the minting bucket.
  for (const auto& e : snap.leases) {
    Lease& l = leases_[e.owner];
    Duration ttl(e.ttl_ns);
    TimePoint expires(
        std::chrono::duration_cast<TimePoint::duration>(Duration(e.expires_ns)));
    if (l.ttl == Duration::zero() || expires > l.expires) {
      if (l.ttl == Duration::zero()) l.ttl = ttl;
      l.expires = std::max(l.expires, expires);
    }
    for (const auto& im : e.impls)
      if (std::find(l.impls.begin(), l.impls.end(), im) == l.impls.end())
        l.impls.push_back(im);
    for (uint64_t id : e.allocs)
      if (std::find(l.allocs.begin(), l.allocs.end(), id) == l.allocs.end())
        l.allocs.push_back(id);
  }
  // A fresh destination (nothing ever published) adopts the source's
  // seq so its event-log fork resumes the same domain; an established
  // one keeps the max so neither side's subscribers see a rewind.
  watch_seq_ = std::max(watch_seq_, snap.watch_seq);
  arm_sweep_locked();
  // Merge into an established domain: surface the migrated impls as
  // ordinary register events. Emitting AFTER the max-seq bump puts them
  // above every seq a re-homing source subscriber can carry, so both the
  // destination's own subscribers (per-sub prev_seq chains across the
  // jump) and re-homed ones (replay of events > their last_seq) get them
  // without a gap. Deterministic across replicas: snap.impls order.
  for (auto& info : added) {
    WatchEvent ev;
    ev.kind = WatchKind::impl_registered;
    ev.type = info.type;
    ev.name = info.name;
    ev.info = std::move(info);
    emit(std::move(ev));
  }
}

// --- Leases ---

Result<void> DiscoveryState::register_impl_leased(const ImplInfo& info,
                                                 const std::string& owner,
                                                 Duration ttl) {
  return register_impl_leased_at(info, owner, ttl, now());
}

Result<void> DiscoveryState::register_impl_leased_at(const ImplInfo& info,
                                                     const std::string& owner,
                                                     Duration ttl,
                                                     TimePoint at) {
  if (owner.empty() || ttl <= Duration::zero())
    return err(Errc::invalid_argument, "lease requires owner and positive ttl");
  std::lock_guard<std::mutex> lk(mu_);
  BERTHA_TRY(register_impl_locked(info));
  auto [it, fresh] = leases_.try_emplace(owner);
  Lease& l = it->second;
  l.ttl = ttl;
  l.expires = at + ttl;
  auto key = std::make_pair(info.type, info.name);
  if (std::find(l.impls.begin(), l.impls.end(), key) == l.impls.end())
    l.impls.push_back(std::move(key));
  if (fresh && fault_stats_) fault_stats_->lease_grants++;
  arm_sweep_locked();
  return ok();
}

Result<uint64_t> DiscoveryState::acquire_leased(
    const std::vector<ResourceReq>& reqs, const std::string& owner,
    Duration ttl) {
  return acquire_leased_at(reqs, owner, ttl, now());
}

Result<uint64_t> DiscoveryState::acquire_leased_at(
    const std::vector<ResourceReq>& reqs, const std::string& owner,
    Duration ttl, TimePoint at) {
  if (owner.empty() || ttl <= Duration::zero())
    return err(Errc::invalid_argument, "lease requires owner and positive ttl");
  std::lock_guard<std::mutex> lk(mu_);
  BERTHA_TRY_ASSIGN(id, acquire_locked(reqs));
  auto [it, fresh] = leases_.try_emplace(owner);
  Lease& l = it->second;
  l.ttl = ttl;
  l.expires = at + ttl;
  l.allocs.push_back(id);
  if (fresh && fault_stats_) fault_stats_->lease_grants++;
  arm_sweep_locked();
  return id;
}

Result<void> DiscoveryState::heartbeat(const std::string& owner) {
  return heartbeat_at(owner, now());
}

Result<void> DiscoveryState::heartbeat_at(const std::string& owner,
                                          TimePoint at) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leases_.find(owner);
  if (it == leases_.end())
    return err(Errc::not_found, "no lease held by " + owner);
  it->second.expires = at + it->second.ttl;
  if (fault_stats_) fault_stats_->lease_renewals++;
  return ok();
}

size_t DiscoveryState::expire_leases() {
  std::lock_guard<std::mutex> lk(mu_);
  return expire_leases_locked(now());
}

size_t DiscoveryState::expire_leases_at(TimePoint when) {
  std::lock_guard<std::mutex> lk(mu_);
  return expire_leases_locked(when);
}

void DiscoveryState::set_alloc_namespace(uint64_t ns) {
  std::lock_guard<std::mutex> lk(mu_);
  next_alloc_ = (ns << kAllocNamespaceShift) | 1;
}

void DiscoveryState::set_manual_sweep(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  manual_sweep_ = on;
}

size_t DiscoveryState::expire_leases_locked(TimePoint when) {
  size_t reaped = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    Lease& l = it->second;
    if (l.expires > when) {
      ++it;
      continue;
    }
    BLOG(warn, "discovery") << "lease expired for " << it->first << ": "
                            << l.impls.size() << " impls, " << l.allocs.size()
                            << " allocs reclaimed";
    // Entries the owner already removed explicitly come back not_found —
    // that's fine, the lease just tracks what it *may* still own.
    for (const auto& [type, name] : l.impls)
      (void)unregister_impl_locked(type, name);
    for (uint64_t id : l.allocs) (void)release_locked(id);
    it = leases_.erase(it);
    reaped++;
    if (fault_stats_) fault_stats_->lease_expiries++;
  }
  return reaped;
}

void DiscoveryState::arm_sweep_locked() {
  // Manual-sweep (replicated) states expire only via expire_leases_at():
  // a local timer firing on one replica but not its peers would diverge
  // the replicated catalogue.
  if (manual_sweep_ || stopping_) return;
  TimePoint earliest = TimePoint::max();
  for (const auto& [owner, l] : leases_)
    earliest = std::min(earliest, l.expires);
  if (earliest >= sweep_at_) return;
  sweep_at_ = earliest;
  process_wheel()->schedule(earliest - now(),
                            sweep_gate_.wrap([this] { sweep(); }));
}

void DiscoveryState::sweep() {
  std::lock_guard<std::mutex> lk(mu_);
  TimePoint t = now();
  if (t < sweep_at_) return;  // superseded by an earlier entry
  sweep_at_ = TimePoint::max();
  expire_leases_locked(t);
  arm_sweep_locked();
}

// --- Wire protocol ---
//
// Request/response codec and execute_request live in discovery_wire.cpp,
// shared with the replicated control plane (src/control/).
// --- Watch subscription messages ---

Bytes encode_subscribe(const SubscribeMsg& m) {
  Writer w;
  w.put_varint(m.sub_id);
  w.put_string(m.client_id);
  w.put_string(m.filter);
  w.put_varint(m.last_seq);
  w.put_bool(m.resume);
  return std::move(w).take();
}

Result<SubscribeMsg> decode_subscribe(BytesView b) {
  Reader r(b);
  SubscribeMsg m;
  BERTHA_TRY_ASSIGN(sub_id, r.get_varint());
  BERTHA_TRY_ASSIGN(client, r.get_string());
  BERTHA_TRY_ASSIGN(filter, r.get_string());
  BERTHA_TRY_ASSIGN(last, r.get_varint());
  BERTHA_TRY_ASSIGN(resume, r.get_bool());
  if (sub_id == 0) return err(Errc::protocol_error, "zero subscription id");
  if (client.empty())
    return err(Errc::protocol_error, "subscribe missing client id");
  m.sub_id = sub_id;
  m.client_id = std::move(client);
  m.filter = std::move(filter);
  m.last_seq = last;
  m.resume = resume;
  return m;
}

Bytes encode_unsubscribe(const UnsubscribeMsg& m) {
  Writer w;
  w.put_varint(m.sub_id);
  w.put_string(m.client_id);
  return std::move(w).take();
}

Result<UnsubscribeMsg> decode_unsubscribe(BytesView b) {
  Reader r(b);
  UnsubscribeMsg m;
  BERTHA_TRY_ASSIGN(sub_id, r.get_varint());
  BERTHA_TRY_ASSIGN(client, r.get_string());
  if (sub_id == 0) return err(Errc::protocol_error, "zero subscription id");
  if (client.empty())
    return err(Errc::protocol_error, "unsubscribe missing client id");
  m.sub_id = sub_id;
  m.client_id = std::move(client);
  return m;
}

Bytes encode_event_batch(const EventBatchMsg& m) {
  Writer w;
  w.put_varint(m.prev_seq);
  w.put_varint(m.last_seq);
  w.put_bool(m.snapshot);
  serde_put(w, m.events);
  return std::move(w).take();
}

Result<EventBatchMsg> decode_event_batch(BytesView b) {
  Reader r(b);
  EventBatchMsg m;
  BERTHA_TRY_ASSIGN(prev, r.get_varint());
  BERTHA_TRY_ASSIGN(last, r.get_varint());
  BERTHA_TRY_ASSIGN(snapshot, r.get_bool());
  BERTHA_TRY_ASSIGN(events, serde_get<std::vector<WatchEvent>>(r));
  // Seq sanity: the batch must cover a forward range and its events must
  // fit inside it — an incremental batch strictly ordered within
  // (prev_seq, last_seq], a snapshot pinned at last_seq. Anything else
  // is a corrupt or forged frame, not a recoverable gap.
  if (last < prev)
    return err(Errc::protocol_error, "event batch seq regression");
  if (snapshot && prev != 0)
    return err(Errc::protocol_error, "snapshot batch with prev seq");
  uint64_t floor = prev;
  for (const auto& ev : events) {
    if (snapshot) {
      if (ev.seq != last)
        return err(Errc::protocol_error, "snapshot event seq mismatch");
      continue;
    }
    if (ev.seq <= floor || ev.seq > last)
      return err(Errc::protocol_error, "event seq outside batch range");
    floor = ev.seq;
  }
  m.prev_seq = prev;
  m.last_seq = last;
  m.snapshot = snapshot;
  m.events = std::move(events);
  return m;
}

DiscoveryServer::DiscoveryServer(TransportPtr transport,
                                 std::shared_ptr<DiscoveryState> state,
                                 Options opts)
    : transport_(std::move(transport)),
      state_(std::move(state)),
      opts_(opts),
      addr_(transport_->local_addr()) {
  // The push watcher is unfiltered and delivers inline: every event the
  // state emits lands in the event log before the state's mutex drops.
  auto w = state_->watch("");
  if (w.ok()) {
    push_watch_ = std::move(w).value();
    auto [unused, seq] = state_->catalogue_snapshot();
    (void)unused;
    {
      std::lock_guard<std::mutex> lk(log_mu_);
      pruned_through_ = seq;  // events before the server existed are gone
      observed_through_ = seq;
    }
    push_watch_->set_sink(
        [this](std::vector<WatchEvent> evs) { on_events(std::move(evs)); });
    if (opts_.keepalive > Duration::zero()) arm_keepalive(opts_.keepalive);
  }
  thread_ = std::thread([this] { serve_loop(); });
}

DiscoveryServer::~DiscoveryServer() {
  transport_->close();
  if (push_watch_) push_watch_->cancel();
  gate_.close();
  if (thread_.joinable()) thread_.join();
}

uint64_t DiscoveryServer::requests_served() const {
  std::lock_guard<std::mutex> lk(mu_);
  return requests_;
}

uint64_t DiscoveryServer::dedup_hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dedup_hits_;
}

uint64_t DiscoveryServer::subscribes_served() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return subscribes_;
}

uint64_t DiscoveryServer::batches_pushed() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return batches_pushed_;
}

uint64_t DiscoveryServer::events_pushed() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return events_pushed_;
}

uint64_t DiscoveryServer::snapshots_served() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return snapshots_;
}

size_t DiscoveryServer::subscriber_count() const {
  std::lock_guard<std::mutex> lk(push_mu_);
  return subs_.size();
}

EventLogSnapshot DiscoveryServer::export_event_log(uint64_t through_seq) const {
  EventLogSnapshot log;
  std::lock_guard<std::mutex> lk(log_mu_);
  if (observed_through_ < through_seq) {
    // The state jumped past the log without emitting (a snapshot
    // install): hand over an empty, fully-pruned log. Resuming
    // subscribers on the joiner get a snapshot batch.
    log.pruned_through = through_seq;
    log.observed_through = through_seq;
    return log;
  }
  log.events.assign(event_log_.begin(), event_log_.end());
  // Trim events past the snapshot's cut; the joiner regenerates those by
  // replaying the sequenced suffix.
  while (!log.events.empty() && log.events.back().seq > through_seq)
    log.events.pop_back();
  log.pruned_through = pruned_through_;
  log.observed_through = through_seq;
  return log;
}

void DiscoveryServer::install_event_log(const EventLogSnapshot& log,
                                        uint64_t state_seq) {
  std::lock_guard<std::mutex> lk(log_mu_);
  event_log_.assign(log.events.begin(), log.events.end());
  pruned_through_ = log.pruned_through;
  observed_through_ = std::max(log.observed_through, state_seq);
  if (log.observed_through < state_seq) {
    // The exported log stopped short of the installed state; anything
    // between is unreplayable.
    event_log_.clear();
    pruned_through_ = state_seq;
  }
}

namespace {

std::string sub_key(const std::string& client_id, uint64_t sub_id) {
  std::string key = client_id;
  key += '#';
  key += std::to_string(sub_id);
  return key;
}

}  // namespace

void DiscoveryServer::push_to_locked(Sub& sub,
                                     const std::vector<WatchEvent>& events,
                                     uint64_t round_max_seq) {
  if (round_max_seq <= sub.last_sent_seq) return;  // already covered
  EventBatchMsg batch;
  batch.prev_seq = sub.last_sent_seq;
  batch.last_seq = round_max_seq;
  for (const auto& ev : events) {
    if (ev.seq <= sub.last_sent_seq) continue;
    if (DiscoveryWatcher::matches(sub.filter, ev)) batch.events.push_back(ev);
  }
  sub.last_sent_seq = round_max_seq;
  batches_pushed_++;
  events_pushed_ += batch.events.size();
  send_to_sub_locked(sub, encode_frame(MsgKind::event_batch, sub.sub_id,
                                       encode_event_batch(batch)));
}

void DiscoveryServer::send_to_sub_locked(Sub& sub, Bytes frame) {
  Datagram d;
  d.dst = sub.addr;
  d.payload.assign(frame);
  fanout_buf_.push_back(std::move(d));
  fanout_subs_.push_back(&sub);
}

void DiscoveryServer::flush_fanout_locked() {
  if (fanout_buf_.empty()) return;
  // One batched send covers the whole round; datagrams [0, sent) were
  // handed to the transport, the tail was not (batch sends stop at the
  // first hard error).
  auto r = send_batch(*transport_, fanout_buf_);
  size_t sent = r.ok() ? r.value() : 0;
  for (size_t i = 0; i < fanout_subs_.size(); i++) {
    if (i < sent)
      fanout_subs_[i]->send_failures = 0;
    else
      fanout_subs_[i]->send_failures++;
  }
  fanout_buf_.clear();
  fanout_subs_.clear();
}

void DiscoveryServer::evict_dead_subs_locked() {
  for (auto it = subs_.begin(); it != subs_.end();) {
    if (it->second.send_failures > kSubFailureLimit) {
      BLOG(info, "discovery") << "evicting unreachable watch subscriber "
                              << it->first;
      it = subs_.erase(it);
    } else {
      ++it;
    }
  }
}

void DiscoveryServer::send_snapshot_locked(Sub& sub) {
  auto [impls, seq] = state_->catalogue_snapshot();
  EventBatchMsg batch;
  batch.snapshot = true;
  batch.last_seq = seq;
  for (const auto& info : impls) {
    WatchEvent ev;
    ev.kind = WatchKind::impl_registered;
    ev.seq = seq;
    ev.type = info.type;
    ev.name = info.name;
    ev.info = info;
    if (DiscoveryWatcher::matches(sub.filter, ev))
      batch.events.push_back(std::move(ev));
  }
  sub.last_sent_seq = seq;
  snapshots_++;
  batches_pushed_++;
  events_pushed_ += batch.events.size();
  send_to_sub_locked(sub, encode_frame(MsgKind::event_batch, sub.sub_id,
                                       encode_event_batch(batch)));
}

void DiscoveryServer::handle_subscribe(const Addr& src, uint64_t sub_id,
                                       BytesView body) {
  auto msg_r = decode_subscribe(body);
  if (!msg_r.ok()) {
    BLOG(debug, "discovery") << "bad subscribe from " << src.to_string()
                             << ": " << msg_r.error().to_string();
    return;  // no response channel to complain on; the client times out
  }
  const SubscribeMsg& msg = msg_r.value();
  if (msg.sub_id != sub_id) return;  // token/body mismatch: forged frame
  std::lock_guard<std::mutex> lk(push_mu_);
  subscribes_++;
  Sub& sub = subs_[sub_key(msg.client_id, msg.sub_id)];
  sub.addr = src;  // re-subscribe from a new address moves the stream
  sub.sub_id = msg.sub_id;
  sub.filter = msg.filter;
  sub.send_failures = 0;  // the client is demonstrably alive
  // Catch-up: replay from the event log when the client's seq is still
  // inside the resume window, else send a full snapshot. The first
  // batch doubles as the subscribe ack.
  std::vector<WatchEvent> replay;
  uint64_t covered;
  bool resumable;
  {
    std::lock_guard<std::mutex> llk(log_mu_);
    resumable = msg.last_seq >= pruned_through_;
    if (resumable)
      for (const auto& ev : event_log_)
        if (ev.seq > msg.last_seq) replay.push_back(ev);
    covered = std::max(observed_through_, msg.last_seq);
  }
  if (!resumable) {
    send_snapshot_locked(sub);
    flush_fanout_locked();
    return;
  }
  sub.last_sent_seq = msg.last_seq;
  if (!replay.empty() || covered > msg.last_seq || !msg.resume) {
    // Forced even when empty: a fresh subscribe needs its ack batch.
    EventBatchMsg batch;
    batch.prev_seq = msg.last_seq;
    batch.last_seq = covered;
    for (auto& ev : replay)
      if (DiscoveryWatcher::matches(sub.filter, ev))
        batch.events.push_back(std::move(ev));
    sub.last_sent_seq = covered;
    batches_pushed_++;
    events_pushed_ += batch.events.size();
    send_to_sub_locked(sub, encode_frame(MsgKind::event_batch, sub.sub_id,
                                         encode_event_batch(batch)));
    flush_fanout_locked();
  }
}

void DiscoveryServer::handle_unsubscribe(BytesView body) {
  auto msg_r = decode_unsubscribe(body);
  if (!msg_r.ok()) return;
  std::lock_guard<std::mutex> lk(push_mu_);
  subs_.erase(sub_key(msg_r.value().client_id, msg_r.value().sub_id));
}

void DiscoveryServer::on_events(std::vector<WatchEvent> events) {
  std::lock_guard<std::mutex> lk(log_mu_);
  size_t fresh = 0;
  for (auto& ev : events) {
    // Pre-baseline stragglers, and — after an install_event_log() —
    // events the installed log already covers.
    if (ev.seq <= observed_through_) continue;
    // A gap against the log tail means events never reached us; resume
    // past it is impossible, so the round snapshots everyone.
    if (observed_through_ != 0 && ev.seq != observed_through_ + 1)
      round_lost_ = true;
    observed_through_ = ev.seq;
    event_log_.push_back(ev);
    round_.push_back(std::move(ev));
    fresh++;
  }
  while (event_log_.size() > opts_.event_log_cap) {
    pruned_through_ = event_log_.front().seq;
    event_log_.pop_front();
  }
  if (round_lost_) {
    pruned_through_ = observed_through_;
    event_log_.clear();
  }
  // The first event of a round arms its push; the rest of the burst
  // rides along.
  if (fresh == 0 || round_armed_) return;
  round_armed_ = true;
  process_wheel()->schedule(opts_.coalesce_window,
                            gate_.wrap([this] { push_round(); }));
}

void DiscoveryServer::push_round() {
  std::lock_guard<std::mutex> lk(push_mu_);
  std::vector<WatchEvent> round;
  bool lost;
  uint64_t through;
  {
    std::lock_guard<std::mutex> llk(log_mu_);
    round.swap(round_);
    lost = round_lost_;
    round_lost_ = false;
    round_armed_ = false;
    through = observed_through_;
  }
  if (lost) {
    for (auto& [key, sub] : subs_) send_snapshot_locked(sub);
  } else {
    for (auto& [key, sub] : subs_) push_to_locked(sub, round, through);
  }
  flush_fanout_locked();
  evict_dead_subs_locked();
  last_push_ = now();
}

void DiscoveryServer::arm_keepalive(Duration delay) {
  process_wheel()->schedule(delay, gate_.wrap([this] { push_keepalives(); }));
}

void DiscoveryServer::push_keepalives() {
  // An empty batch advances nothing but lets clients that missed pushes
  // during a partition notice the seq gap. Keepalives fill push silence
  // only: a round within the last period puts the next one off.
  std::lock_guard<std::mutex> lk(push_mu_);
  Duration quiet = now() - last_push_;
  if (quiet < opts_.keepalive) return arm_keepalive(opts_.keepalive - quiet);
  for (auto& [key, sub] : subs_) {
    EventBatchMsg batch;
    batch.prev_seq = sub.last_sent_seq;
    batch.last_seq = sub.last_sent_seq;
    send_to_sub_locked(sub, encode_frame(MsgKind::event_batch, sub.sub_id,
                                         encode_event_batch(batch)));
  }
  flush_fanout_locked();
  evict_dead_subs_locked();
  last_push_ = now();
  arm_keepalive(opts_.keepalive);
}

void DiscoveryServer::serve_loop() {
  for (;;) {
    auto pkt_r = transport_->recv();
    if (!pkt_r.ok()) return;  // closed
    const Packet& pkt = pkt_r.value();

    auto frame_r = decode_frame(pkt.payload);
    if (!frame_r.ok()) {
      BLOG(debug, "discovery") << "ignoring undecodable datagram from "
                               << pkt.src.to_string();
      continue;
    }
    if (frame_r.value().kind == MsgKind::subscribe && push_watch_) {
      handle_subscribe(pkt.src, frame_r.value().token,
                       frame_r.value().payload);
      continue;
    }
    if (frame_r.value().kind == MsgKind::unsubscribe && push_watch_) {
      handle_unsubscribe(frame_r.value().payload);
      continue;
    }
    if (frame_r.value().kind != MsgKind::discovery) {
      BLOG(debug, "discovery") << "ignoring non-discovery datagram from "
                               << pkt.src.to_string();
      continue;
    }
    uint64_t req_id = frame_r.value().token;

    DiscResponse rsp;
    std::string dedup_key;
    auto req_r = decode_request(frame_r.value().payload);
    if (!req_r.ok()) {
      rsp = error_response(req_r.error());
    } else if (!req_r.value().types.empty()) {
      // A batched catalogue read: every type takes the single-query path
      // (interceptor, then the local state), so a fenced or forwarded
      // range answers for its own types only.
      const DiscRequest& req = req_r.value();
      Span serve_span = trace_span(opts_.tracer, serve_span_name(req.op),
                                   req.trace);
      serve_span.tag_u64("types", req.types.size());
      rsp.success = true;
      for (const auto& type : req.types) {
        DiscRequest part;
        part.op = DiscOp::query;
        part.type = type;
        part.client_id = req.client_id;
        part.trace = req.trace;
        std::optional<DiscResponse> icpt;
        if (opts_.request_interceptor) icpt = opts_.request_interceptor(part);
        rsp.parts.push_back(icpt ? std::move(*icpt)
                                 : execute_request(*state_, part, now()));
      }
    } else {
      const DiscRequest& req = req_r.value();
      // A fencing/forwarding interceptor (reshard) owns the request
      // outright: no local dedup (the authoritative cache travelled with
      // the migrated range) and no local execution.
      std::optional<DiscResponse> icpt;
      if (opts_.request_interceptor) icpt = opts_.request_interceptor(req);
      // Retried mutation we already executed? Replay the recorded answer
      // so the effect stays exactly-once (a lost acquire response must
      // not allocate twice).
      if (!icpt && req.idem_key != 0 && !req.client_id.empty() &&
          is_mutation(req.op)) {
        dedup_key = req.client_id;
        dedup_key += '#';
        dedup_key += std::to_string(req.idem_key);
        Bytes replay;
        {
          std::lock_guard<std::mutex> lk(mu_);
          auto it = dedup_.find(dedup_key);
          if (it != dedup_.end()) {
            requests_++;
            dedup_hits_++;
            replay = encode_frame(MsgKind::discovery, req_id, it->second);
          }
        }
        if (!replay.empty()) {
          if (auto st = state_->fault_stats()) st->dedup_hits++;
          // The retry shares the original request's trace context, so
          // this span lands in the same trace as the first execution.
          Span s = trace_span(opts_.tracer, serve_span_name(req.op), req.trace);
          s.tag("dedup_hit", "1");
          s.finish();  // recorded before the client can hold its answer
          (void)transport_->send_to(pkt.src, replay);
          continue;
        }
      }
      Span serve_span = trace_span(opts_.tracer, serve_span_name(req.op),
                                   req.trace);
      if (icpt) {
        serve_span.tag("intercepted", "1");
        rsp = std::move(*icpt);
      } else if (opts_.mutation_executor && is_mutation(req.op)) {
        serve_span.tag("replicated", "1");
        rsp = opts_.mutation_executor(req);
      } else {
        rsp = execute_request(*state_, req, now());
      }
      if (!rsp.success) serve_span.tag("error", rsp.error);
    }

    // Transient failures (the replica group unreachable, a sequencer
    // timeout) must not be recorded: the whole point of the client's
    // retry is to try again, not to be handed the outage verbatim.
    bool transient = !rsp.success &&
                     (rsp.errc == static_cast<uint8_t>(Errc::unavailable) ||
                      rsp.errc == static_cast<uint8_t>(Errc::timed_out));
    Bytes body = encode_response(rsp);
    {
      std::lock_guard<std::mutex> lk(mu_);
      requests_++;
      if (!dedup_key.empty() && !transient &&
          dedup_.emplace(dedup_key, body).second) {
        dedup_order_.push_back(std::move(dedup_key));
        while (dedup_order_.size() > kDedupCacheCap) {
          dedup_.erase(dedup_order_.front());
          dedup_order_.pop_front();
        }
      }
    }
    Bytes out = encode_frame(MsgKind::discovery, req_id, body);
    (void)transport_->send_to(pkt.src, out);
  }
}

// --- RemoteDiscovery ---

struct RemoteDiscovery::Rsp : DiscResponse {};

// A caller blocked in rpc() waiting for the reader to hand it the
// matching response.
struct RemoteDiscovery::Pending {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<DiscResponse> result = err(Errc::internal, "pending");
  // Fire-and-forget completion (wheel-mode heartbeats): invoked once,
  // outside `mu`, by the reader on a response, which then also erases the
  // pending_ entry, since no blocked rpc() caller exists to do it. A beat
  // never answered is reaped by the next beat or by the destructor.
  std::function<void(const Result<DiscResponse>&)> on_done;
};

// A server-push watch subscription. The reader applies pushed
// batches; `last_seq` is the newest catalogue seq applied, the anchor
// for duplicate suppression and gap detection.
struct RemoteDiscovery::Sub {
  uint64_t id = 0;
  std::string filter;
  WatcherPtr watcher;
  std::mutex mu;
  uint64_t last_seq = 0;
  bool acked = false;  // first batch arrived (the subscribe ack)
  std::condition_variable cv;
};

namespace {

uint64_t lease_ttl_ms(const RemoteDiscovery::Options& opts) {
  if (opts.lease_ttl <= Duration::zero()) return 0;
  auto v = std::chrono::duration_cast<std::chrono::milliseconds>(
               opts.lease_ttl)
               .count();
  return v > 0 ? static_cast<uint64_t>(v) : 1;
}

}  // namespace

RemoteDiscovery::RemoteDiscovery(TransportPtr transport,
                                 std::vector<Addr> servers, Options opts)
    : transport_(std::move(transport)),
      servers_(std::move(servers)),
      opts_(opts),
      client_id_("c" + make_unique_id()) {
  // Per-client jitter seed: a fleet of clients whose RPCs time out
  // together (a replica just died) must not retry in lockstep.
  backoff_seed_ = opts_.backoff_seed != 0
                      ? opts_.backoff_seed
                      : (std::hash<std::string>{}(client_id_) | 1);
  retry_backoff_.emplace(opts_.backoff, backoff_seed_);
  auto id = process_reactor().add(
      transport_, each_payload([this](BytesView d) { on_datagram(d); }));
  if (!id.ok())  // no reader: every RPC fails at once, not by timeout
    BLOG(error, "discovery") << "discovery client has no reader: "
                             << id.error().to_string();
  reader_id_ = id.value_or(0);
  reader_dead_ = !id.ok();
}

Duration RemoteDiscovery::backoff_step() const {
  std::lock_guard<std::mutex> lk(bo_mu_);
  return retry_backoff_->current_step();
}

RemoteDiscovery::RemoteDiscovery(TransportPtr transport, Addr server,
                                 Options opts)
    : RemoteDiscovery(std::move(transport),
                      std::vector<Addr>{std::move(server)}, std::move(opts)) {}

Addr RemoteDiscovery::active_server() const {
  std::lock_guard<std::mutex> lk(srv_mu_);
  return servers_[active_];
}

size_t RemoteDiscovery::server_count() const {
  std::lock_guard<std::mutex> lk(srv_mu_);
  return servers_.size();
}

void RemoteDiscovery::update_servers(std::vector<Addr> servers) {
  if (servers.empty()) return;
  std::lock_guard<std::mutex> lk(srv_mu_);
  Addr cur = servers_[active_];
  servers_ = std::move(servers);
  active_ = 0;
  for (size_t i = 0; i < servers_.size(); i++) {
    if (servers_[i].to_string() == cur.to_string()) {
      active_ = i;  // keep the live server; only removal forces a move
      break;
    }
  }
}

RemoteDiscovery::~RemoteDiscovery() {
  // Wheel entries first: cancel_sync waits out a beat or watchdog check
  // in flight. watch_mu_ before hb_mu_: a watchdog armed before
  // stopping_ was set had resolved hb_wheel_ first.
  std::unordered_map<uint64_t, std::shared_ptr<Sub>> subs;
  uint64_t watchdog_timer = 0;
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    stopping_ = true;
    subs.swap(subs_);
    watchdog_timer = watchdog_timer_;
  }
  uint64_t hb_timer = 0;
  std::shared_ptr<TimerWheel> wheel;
  {
    std::lock_guard<std::mutex> lk(hb_mu_);
    hb_stop_ = true;
    hb_timer = hb_timer_;
    wheel = std::move(hb_wheel_);
  }
  if (wheel) {
    if (hb_timer) wheel->cancel_sync(hb_timer);
    if (watchdog_timer) wheel->cancel_sync(watchdog_timer);
  }
  for (auto& [id, sub] : subs) {
    // Best-effort: a lost unsubscribe just leaves the server pushing to a
    // dead address until it notices.
    send_unsubscribe(id);
    sub->watcher->cancel();
  }
  process_reactor().remove(reader_id_);  // returns with the reader gone
  transport_->close();
  // Fail everything still waiting so callers don't block on a dead link.
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    reader_dead_ = true;
    orphans.swap(pending_);
  }
  for (auto& [id, p] : orphans) {
    std::lock_guard<std::mutex> lk(p->mu);
    if (p->done) continue;
    p->result = err(Errc::cancelled, "discovery client closed");
    p->done = true;
    p->cv.notify_all();
  }
  // With the reader gone nobody can spawn a new replay; an in-flight one
  // fails fast (reader_dead_ short-circuits its RPCs).
  if (hb_replay_.joinable()) hb_replay_.join();
}

void RemoteDiscovery::on_datagram(BytesView datagram) {
  auto frame_r = decode_frame(datagram);
  if (!frame_r.ok()) return;
  const Frame& frame = frame_r.value();
  if (frame.kind == MsgKind::event_batch) {
    handle_event_batch(frame.token, frame.payload);
    return;
  }
  if (frame.kind != MsgKind::discovery) return;
  std::shared_ptr<Pending> p;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    auto it = pending_.find(frame.token);
    if (it == pending_.end()) return;  // a timed-out request's response
    p = it->second;
  }
  auto rsp_r = decode_response(frame.payload);
  std::function<void(const Result<DiscResponse>&)> on_done;
  {
    std::lock_guard<std::mutex> lk(p->mu);
    if (p->done) return;  // duplicate response
    if (rsp_r.ok()) p->result = std::move(rsp_r).value();
    else p->result = rsp_r.error();
    p->done = true;
    on_done = std::move(p->on_done);
  }
  p->cv.notify_all();
  if (on_done) {
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      pending_.erase(frame.token);
    }
    // `result` is stable once done is set (duplicates are suppressed
    // above), so reading it without p->mu here is fine.
    on_done(p->result);
  }
}

Result<WatcherPtr> RemoteDiscovery::watch(const std::string& type_filter) {
  auto w = std::make_shared<DiscoveryWatcher>(type_filter);
  BERTHA_TRY(subscribe_watch(w, type_filter));
  return w;
}

void RemoteDiscovery::send_subscribe(const Sub& sub, uint64_t last_seq,
                                     bool resume) {
  SubscribeMsg m;
  m.sub_id = sub.id;
  m.client_id = client_id_;
  m.filter = sub.filter;
  m.last_seq = last_seq;
  m.resume = resume;
  (void)transport_->send_to(
      active_server(),
      encode_frame(MsgKind::subscribe, sub.id, encode_subscribe(m)));
}

void RemoteDiscovery::send_unsubscribe(uint64_t sub_id) {
  UnsubscribeMsg m;
  m.sub_id = sub_id;
  m.client_id = client_id_;
  (void)transport_->send_to(
      active_server(),
      encode_frame(MsgKind::unsubscribe, sub_id, encode_unsubscribe(m)));
}

void RemoteDiscovery::rotate_server(size_t observed) {
  {
    std::lock_guard<std::mutex> lk(srv_mu_);
    if (servers_.size() < 2) return;
    if (observed != active_) return;  // a concurrent caller already rotated
    active_ = (active_ + 1) % servers_.size();
  }
  failovers_.fetch_add(1);
  if (opts_.stats) opts_.stats->server_failovers++;
  Span span = trace_span(opts_.tracer, "ctrl.failover");
  Addr next = active_server();
  span.tag("server", next.to_string());
  BLOG(warn, "discovery") << "failing over to discovery server "
                          << next.to_string();
  // Re-subscribe every live watch stream on the new server with resume:
  // the replicated catalogue carries the identical watch seq on every
  // replica, so the new server replays exactly the missed suffix (no
  // snapshot fallback unless the gap outran its event log).
  std::vector<std::shared_ptr<Sub>> subs;
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    for (auto& [id, sub] : subs_) subs.push_back(sub);
  }
  for (auto& sub : subs) {
    uint64_t last;
    {
      std::lock_guard<std::mutex> lk(sub->mu);
      last = sub->last_seq;
    }
    if (opts_.stats) opts_.stats->watch_resubscribes++;
    send_subscribe(*sub, last, /*resume=*/true);
  }
  last_push_ns_.store(now().time_since_epoch().count(),
                      std::memory_order_relaxed);
}

void RemoteDiscovery::ensure_watchdog() {
  const Duration limit = opts_.watch_failover_timeout;
  if (limit <= Duration::zero() || server_count() < 2) return;
  // The check period bounds detection latency past the timeout (an
  // operator knob; RuntimeConfig control tuning plumbs it through).
  const Duration period = opts_.watchdog_interval > Duration::zero()
                              ? opts_.watchdog_interval
                              : limit / 2;
  auto wheel = timer_wheel();
  std::lock_guard<std::mutex> lk(watch_mu_);
  if (watchdog_timer_ || stopping_) return;
  last_push_ns_.store(now().time_since_epoch().count(),
                      std::memory_order_relaxed);
  watchdog_timer_ = wheel->schedule_periodic(period, [this, limit] {
    // A live subscription receives at least the server's keepalive
    // batches; silence past the failover timeout means the active server
    // stopped pushing (died, or we're partitioned from it) even though
    // no RPC has timed out to notice — so rotate proactively.
    size_t observed;
    {
      std::lock_guard<std::mutex> wlk(watch_mu_);
      if (stopping_ || subs_.empty()) return;
      int64_t last = last_push_ns_.load(std::memory_order_relaxed);
      if (now().time_since_epoch().count() - last < limit.count()) return;
      std::lock_guard<std::mutex> slk(srv_mu_);
      observed = active_;
    }
    rotate_server(observed);
  });
}

Result<void> RemoteDiscovery::subscribe_watch(WatcherPtr w,
                                              const std::string& filter) {
  auto sub = std::make_shared<Sub>();
  sub->id = next_req_.fetch_add(1);
  sub->filter = filter;
  sub->watcher = std::move(w);
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    if (stopping_) return err(Errc::cancelled, "discovery client closing");
    subs_[sub->id] = sub;
  }
  ensure_watchdog();
  // The first event_batch on our token is the subscribe ack; retry the
  // handshake like any RPC. An old server ignores the frame entirely, so
  // exhausting retries means "no push support", not "service down".
  ExponentialBackoff backoff(opts_.backoff,
                             backoff_seed_ ^ (sub->id * 0x9e3779b9ull));
  for (int attempt = 0; attempt <= opts_.retries; attempt++) {
    if (attempt > 0 && opts_.stats) opts_.stats->rpc_retries++;
    uint64_t last_seq;
    {
      std::lock_guard<std::mutex> lk(sub->mu);
      if (sub->acked) return ok();
      last_seq = sub->last_seq;
    }
    send_subscribe(*sub, last_seq, /*resume=*/false);
    std::unique_lock<std::mutex> lk(sub->mu);
    if (sub->cv.wait_for(lk, opts_.rpc_timeout, [&] { return sub->acked; }))
      return ok();
    lk.unlock();
    if (attempt < opts_.retries) sleep_for(backoff.next());
  }
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    subs_.erase(sub->id);
  }
  if (opts_.stats) opts_.stats->rpc_failures++;
  return err(Errc::unavailable,
             "discovery service did not ack the watch subscription");
}

void RemoteDiscovery::handle_event_batch(uint64_t token, BytesView payload) {
  std::shared_ptr<Sub> sub;
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    auto it = subs_.find(token);
    if (it == subs_.end()) return;  // unknown/closed stream
    sub = it->second;
  }
  last_push_ns_.store(now().time_since_epoch().count(),
                      std::memory_order_relaxed);
  if (sub->watcher->cancelled()) {
    // The consumer dropped its handle; close the stream server-side too.
    {
      std::lock_guard<std::mutex> lk(watch_mu_);
      subs_.erase(token);
    }
    send_unsubscribe(token);
    return;
  }
  auto batch_r = decode_event_batch(payload);
  if (!batch_r.ok()) return;  // corrupt push; the next keepalive re-syncs us
  EventBatchMsg batch = std::move(batch_r).value();

  std::vector<WatchEvent> apply;
  bool applied = false;
  bool need_resume = false;
  uint64_t resume_from = 0;
  {
    std::lock_guard<std::mutex> lk(sub->mu);
    if (batch.last_seq < sub->last_seq) return;  // stale duplicate/reorder
    if (batch.snapshot) {
      if (batch.last_seq == sub->last_seq && sub->acked)
        return;  // we already hold this state
      apply = std::move(batch.events);
      sub->last_seq = batch.last_seq;
      applied = true;
      if (opts_.stats) opts_.stats->watch_snapshots++;
    } else if (batch.prev_seq > sub->last_seq) {
      // Gap: batches between prev_seq and our seq were lost (partition,
      // drop, or server-side overflow). Don't apply — ask the server to
      // replay from where we actually are; the replay covers this batch.
      need_resume = true;
      resume_from = sub->last_seq;
    } else {
      // Contiguous or overlapping: apply only what we haven't seen, so a
      // duplicated or partially re-sent batch never double-applies.
      for (auto& ev : batch.events)
        if (ev.seq > sub->last_seq) apply.push_back(std::move(ev));
      sub->last_seq = batch.last_seq;
      applied = true;
    }
    if (!need_resume) sub->acked = true;
  }
  if (need_resume) {
    if (opts_.stats) opts_.stats->watch_resubscribes++;
    send_subscribe(*sub, resume_from, /*resume=*/true);
    return;
  }
  sub->cv.notify_all();
  if (!applied) return;
  if (opts_.stats && !apply.empty()) opts_.stats->watch_batches++;
  std::vector<WatchEvent> filtered;
  for (auto& ev : apply)
    if (sub->watcher->wants(ev)) filtered.push_back(std::move(ev));
  if (!filtered.empty()) sub->watcher->deliver_batch(std::move(filtered));
}

// An RPC between its send and its await step.
struct RemoteDiscovery::Call {
  uint64_t req_id = 0;
  Bytes frame;
  std::shared_ptr<Pending> p;  // null: the client was closed
  Span* span = nullptr;
  Span att;             // the current attempt's span
  int attempt = 0;
  size_t observed = 0;  // server index the current attempt went to
  TimePoint attempt_deadline;
  Result<void> sent = ok();  // a failed send ends the call
};

namespace {

Error response_error(const DiscResponse& rsp) {
  Errc code = rsp.errc <= static_cast<uint8_t>(Errc::internal)
                  ? static_cast<Errc>(rsp.errc)
                  : Errc::internal;
  return err(code, rsp.error);
}

bool answered_unavailable(const DiscResponse& rsp) {
  return !rsp.success &&
         rsp.errc == static_cast<uint8_t>(Errc::unavailable);
}

}  // namespace

Result<RemoteDiscovery::Rsp> RemoteDiscovery::rpc(const Bytes& request_body,
                                                  Span* span) {
  Call call;
  start_rpc(call, request_body, span);
  return await_rpc(call);
}

void RemoteDiscovery::start_rpc(Call& call, const Bytes& request_body,
                                Span* span) {
  call.req_id = next_req_.fetch_add(1);
  call.frame = encode_frame(MsgKind::discovery, call.req_id, request_body);
  call.span = span;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (reader_dead_) return;
    call.p = std::make_shared<Pending>();
    pending_[call.req_id] = call.p;
  }
  send_attempt(call);
}

void RemoteDiscovery::send_attempt(Call& call) {
  if (call.attempt > 0 && opts_.stats) opts_.stats->rpc_retries++;
  // One child span per resend: retries of a logical RPC share its
  // trace id, which is what the fault-propagation tests assert.
  call.att = call.span ? trace_span(opts_.tracer, "rpc.attempt",
                                    call.span->context())
                       : Span{};
  call.att.tag_u64("attempt", static_cast<uint64_t>(call.attempt));
  Addr target;
  {
    std::lock_guard<std::mutex> lk(srv_mu_);
    call.observed = active_;
    target = servers_[active_];
  }
  call.att.tag("server", target.to_string());
  call.attempt_deadline = now() + opts_.rpc_timeout;
  call.sent = transport_->send_to(target, call.frame);
}

Result<RemoteDiscovery::Rsp> RemoteDiscovery::await_rpc(Call& call) {
  if (!call.p) return err(Errc::cancelled, "discovery client closed");
  // The retry backoff is per-*client*, not per-call: escalation from one
  // outage carries into the next RPC, and the first success resets it —
  // a recovered server is charged nothing for its history.
  auto backoff_delay = [this] {
    std::lock_guard<std::mutex> lk(bo_mu_);
    return retry_backoff_->next();
  };
  Result<DiscResponse> outcome =
      err(Errc::unavailable, "discovery service unreachable at " +
                                 active_server().to_string());
  bool exhausted = true;
  for (;;) {
    if (!call.sent.ok()) {
      outcome = call.sent.error();
      exhausted = false;
      break;
    }
    std::shared_ptr<Pending> p = call.p;
    std::unique_lock<std::mutex> lk(p->mu);
    if (p->cv.wait_until(lk, call.attempt_deadline, [&] { return p->done; })) {
      outcome = std::move(p->result);
      exhausted = false;
      // An `unavailable` *response* is the server saying "try again
      // shortly" — a fenced key range mid-reshard, a sequencer timeout.
      // The server is alive (it answered), so retry in place without
      // rotating; idempotency keys make the resend exactly-once. A
      // batched query retries while any of its types answered so.
      bool retry_rsp =
          outcome.ok() && call.attempt < opts_.retries &&
          (answered_unavailable(outcome.value()) ||
           std::any_of(outcome.value().parts.begin(),
                       outcome.value().parts.end(), answered_unavailable));
      if (!retry_rsp) break;
      lk.unlock();
      call.att.tag("unavailable", "1");
      auto fresh = std::make_shared<Pending>();
      {
        std::lock_guard<std::mutex> plk(pending_mu_);
        if (reader_dead_) break;
        pending_[call.req_id] = fresh;
      }
      call.p = std::move(fresh);
      sleep_for(backoff_delay());
    } else {
      lk.unlock();
      call.att.tag("timeout", "1");
      // The active server let an RPC time out: assume it died and try
      // the next replica on the following attempt (no-op with one
      // server).
      rotate_server(call.observed);
      if (call.attempt >= opts_.retries) break;
      sleep_for(backoff_delay());
    }
    call.attempt++;
    send_attempt(call);
  }
  call.att = Span{};
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    pending_.erase(call.req_id);
  }

  Span* span = call.span;
  int attempts_used = call.attempt + 1;
  if (span && span->active()) {
    span->tag_u64("attempts", static_cast<uint64_t>(attempts_used));
    if (attempts_used > 1) span->tag("retried", "1");
    if (exhausted) span->tag("exhausted", "1");
  }
  if (exhausted && opts_.stats) opts_.stats->rpc_failures++;
  if (!outcome.ok()) return outcome.error();
  DiscResponse raw = std::move(outcome).value();
  if (!raw.success) return response_error(raw);
  {
    std::lock_guard<std::mutex> blk(bo_mu_);
    retry_backoff_->reset();
  }
  Rsp rsp;
  static_cast<DiscResponse&>(rsp) = std::move(raw);
  return rsp;
}

std::shared_ptr<TimerWheel> RemoteDiscovery::timer_wheel() {
  std::lock_guard<std::mutex> lk(hb_mu_);
  if (!hb_wheel_ && opts_.wheel_source) hb_wheel_ = opts_.wheel_source();
  if (!hb_wheel_) hb_wheel_ = process_wheel();
  return hb_wheel_;
}

void RemoteDiscovery::ensure_heartbeat() {
  if (opts_.lease_ttl <= Duration::zero()) return;
  auto wheel = timer_wheel();
  std::lock_guard<std::mutex> lk(hb_mu_);
  if (hb_started_ || hb_stop_) return;
  hb_started_ = true;
  // Lease renewal is one periodic wheel entry and the RPC is
  // fire-and-forget (the reader completes it), so N leased
  // clients in a process cost zero heartbeat threads. The period gets a
  // ±12.5% per-client jitter, fixed once at arm time (wheel entries
  // re-arm at a constant period): heartbeats from a fleet of clients
  // started together must not stay phase-locked, or a recovering server
  // absorbs them all in one burst.
  Duration period = opts_.heartbeat_period > Duration::zero()
                        ? opts_.heartbeat_period
                        : opts_.lease_ttl / 4;
  if (period <= Duration::zero()) period = ms(10);
  Rng jitter(backoff_seed_ ^ 0x48454152544a4954ull);
  int64_t half_spread = std::max<int64_t>(period.count() / 8, 1);
  period += Duration(jitter.next_in(-half_spread, half_spread));
  hb_timer_ = wheel->schedule_periodic(period, [this] { beat_async(); });
}

void RemoteDiscovery::beat_async() {
  // Wheel tick thread: register the pending, send, return. Never waits —
  // the tick thread beats every connection in the process.
  uint64_t req_id = next_req_.fetch_add(1);
  uint64_t stale = 0;
  size_t stale_server = 0;
  {
    std::lock_guard<std::mutex> lk(hb_mu_);
    if (hb_stop_) return;
    stale = hb_inflight_;
    stale_server = hb_inflight_server_;
  }
  // The previous beat got no answer in a whole period: presume its
  // server dead and move to the next replica, as a timed-out rpc()
  // attempt does (no-op with one server, or if something else already
  // rotated away from it).
  if (stale) rotate_server(stale_server);
  size_t target_idx;
  Addr target;
  {
    std::lock_guard<std::mutex> lk(srv_mu_);
    target_idx = active_;
    target = servers_[active_];
  }
  {
    std::lock_guard<std::mutex> lk(hb_mu_);
    hb_inflight_ = req_id;
    hb_inflight_server_ = target_idx;
  }
  DiscRequest req;
  req.op = DiscOp::heartbeat;
  req.client_id = client_id_;
  Bytes frame = encode_frame(MsgKind::discovery, req_id, encode_request(req));
  auto p = std::make_shared<Pending>();
  p->on_done = [this, req_id](const Result<DiscResponse>& r) {
    {
      std::lock_guard<std::mutex> lk(hb_mu_);
      if (hb_inflight_ == req_id) hb_inflight_ = 0;
    }
    on_heartbeat_done(r);
  };
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (reader_dead_) return;
    // A beat the server never answered would leak its pending entry;
    // reap the previous one when arming the next. No retry here: the
    // next beat (to the next replica) is the retry, and missing
    // lease_ttl/4 worth of beats is what the TTL budget tolerates.
    if (stale) pending_.erase(stale);
    pending_[req_id] = p;
  }
  (void)transport_->send_to(target, frame);
  if (opts_.stats) opts_.stats->heartbeats_sent++;
}

void RemoteDiscovery::on_heartbeat_done(Result<DiscResponse> rsp) {
  // Reader context, a process_reactor() worker: blocking rpc() here would
  // deadlock (the reader completes those RPCs), so the lease-loss replay
  // — the only heavy reaction — runs on a transient thread instead.
  bool lease_lost = rsp.ok() && !rsp.value().success &&
                    rsp.value().errc == static_cast<uint8_t>(Errc::not_found);
  if (!lease_lost) return;
  std::lock_guard<std::mutex> lk(hb_mu_);
  if (hb_stop_) return;
  if (hb_replay_running_.exchange(true)) return;  // one replay at a time
  if (hb_replay_.joinable()) hb_replay_.join();   // reap the finished one
  std::vector<ImplInfo> replay = leased_impls_;
  hb_replay_ = std::thread([this, replay = std::move(replay)] {
    BLOG(warn, "discovery") << "lease lost for " << client_id_
                            << "; re-registering " << replay.size()
                            << " impls";
    for (const auto& info : replay) {
      DiscRequest rr;
      rr.op = DiscOp::register_impl;
      rr.entry = info;
      rr.client_id = client_id_;
      rr.idem_key = next_idem();
      rr.ttl_ms = lease_ttl_ms(opts_);
      Span span = trace_span(opts_.tracer, "rpc.replay_register");
      span.tag("impl", info.name);
      rr.trace = span.context();
      (void)rpc(encode_request(rr), &span);
    }
    if (opts_.stats && !replay.empty()) opts_.stats->lease_recoveries++;
    hb_replay_running_.store(false);
  });
}

void RemoteDiscovery::set_wheel_source(
    std::function<std::shared_ptr<TimerWheel>()> source) {
  std::lock_guard<std::mutex> lk(hb_mu_);
  if (hb_wheel_) return;  // engine already chosen; too late to switch
  opts_.wheel_source = std::move(source);
}

Result<void> RemoteDiscovery::register_impl(const ImplInfo& info) {
  DiscRequest req;
  req.op = DiscOp::register_impl;
  req.entry = info;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  req.ttl_ms = lease_ttl_ms(opts_);
  Span span = trace_span(opts_.tracer, "rpc.register_impl", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  (void)rsp;
  if (req.ttl_ms != 0) {
    {
      std::lock_guard<std::mutex> lk(hb_mu_);
      auto it = std::find_if(leased_impls_.begin(), leased_impls_.end(),
                             [&](const ImplInfo& e) {
                               return e.type == info.type &&
                                      e.name == info.name;
                             });
      if (it != leased_impls_.end()) *it = info;
      else leased_impls_.push_back(info);
    }
    ensure_heartbeat();
  }
  return ok();
}

Result<void> RemoteDiscovery::unregister_impl(const std::string& type,
                                              const std::string& name) {
  DiscRequest req;
  req.op = DiscOp::unregister_impl;
  req.type = type;
  req.name = name;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  Span span = trace_span(opts_.tracer, "rpc.unregister_impl", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  (void)rsp;
  std::lock_guard<std::mutex> lk(hb_mu_);
  std::erase_if(leased_impls_, [&](const ImplInfo& e) {
    return e.type == type && e.name == name;
  });
  return ok();
}

Result<std::vector<ImplInfo>> RemoteDiscovery::query(const std::string& type) {
  DiscRequest req;
  req.op = DiscOp::query;
  req.type = type;
  Span span = trace_span(opts_.tracer, "rpc.query", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  return std::move(rsp.entries);
}

// A batched query between send_query_many() and await_query_many(). The
// call points at `span`, so a QueryCall never moves.
struct RemoteDiscovery::QueryCall {
  size_t types = 0;
  Span span;
  Call call;
};

std::shared_ptr<RemoteDiscovery::QueryCall> RemoteDiscovery::send_query_many(
    std::vector<std::string> types) {
  auto qc = std::make_shared<QueryCall>();
  qc->types = types.size();
  DiscRequest req;
  req.op = DiscOp::query;
  req.types = std::move(types);
  qc->span = trace_span(opts_.tracer, "rpc.query", current_trace_context());
  qc->span.tag_u64("types", qc->types);
  req.trace = qc->span.context();
  start_rpc(qc->call, encode_request(req), &qc->span);
  return qc;
}

DiscoveryClient::QueryOutcomes RemoteDiscovery::await_query_many(
    QueryCall& qc) {
  auto rsp = await_rpc(qc.call);
  qc.span.finish();
  if (rsp.ok() && rsp.value().parts.size() != qc.types)
    rsp = err(Errc::protocol_error, "batched query answered " +
                                        std::to_string(rsp.value().parts.size()) +
                                        " of " + std::to_string(qc.types) +
                                        " types");
  if (!rsp.ok()) return QueryOutcomes(qc.types, rsp.error());
  QueryOutcomes out;
  out.reserve(qc.types);
  for (auto& part : rsp.value().parts) {
    if (part.success) out.push_back(std::move(part.entries));
    else out.push_back(response_error(part));
  }
  return out;
}

DiscoveryClient::QueryOutcomes RemoteDiscovery::query_many(
    const std::vector<std::string>& types) {
  if (types.empty()) return {};
  return await_query_many(*send_query_many(types));
}

Result<uint64_t> RemoteDiscovery::acquire(const std::vector<ResourceReq>& reqs) {
  DiscRequest req;
  req.op = DiscOp::acquire;
  req.resources = reqs;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  req.ttl_ms = lease_ttl_ms(opts_);
  Span span = trace_span(opts_.tracer, "rpc.acquire", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  if (req.ttl_ms != 0) ensure_heartbeat();
  return rsp.alloc_id;
}

Result<void> RemoteDiscovery::release(uint64_t alloc_id) {
  DiscRequest req;
  req.op = DiscOp::release;
  req.alloc_id = alloc_id;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  Span span = trace_span(opts_.tracer, "rpc.release", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  (void)rsp;
  return ok();
}

Result<void> RemoteDiscovery::set_pool(const std::string& pool,
                                       uint64_t capacity) {
  DiscRequest req;
  req.op = DiscOp::set_pool;
  req.type = pool;
  req.capacity = capacity;
  req.client_id = client_id_;
  req.idem_key = next_idem();
  Span span = trace_span(opts_.tracer, "rpc.set_pool", current_trace_context());
  req.trace = span.context();
  BERTHA_TRY_ASSIGN(rsp, rpc(encode_request(req), &span));
  (void)rsp;
  return ok();
}

}  // namespace bertha
