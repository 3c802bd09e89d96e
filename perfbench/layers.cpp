#include "layers.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <utility>

#include "chunnels/builtin.hpp"

namespace perfbench {

using namespace bertha;

namespace {

struct alignas(64) LayerCounters {
  std::atomic<uint64_t> send_ns{0}, recv_ns{0}, cpu_ns{0};
  std::atomic<uint64_t> sends{0}, recvs{0};
  std::atomic<uint64_t> allocs{0}, alloc_bytes{0};
  std::atomic<uint64_t> wrap_ns{0}, wraps{0};
};

LayerCounters g_layers[kLayers];

struct DiscoveryCounters {
  std::atomic<uint64_t> queries{0}, query_ns{0};
  std::atomic<uint64_t> acquires{0}, acquire_ns{0};
  std::atomic<uint64_t> releases{0}, release_ns{0};
  std::atomic<uint64_t> calls{0}, failed{0};
};

DiscoveryCounters g_discovery;

std::mutex g_bound_mu;
std::set<std::string> g_bound;  // guarded by g_bound_mu

// One open call into a decorated layer on this thread. Plain data with
// constant initialisation, so operator new can read it safely.
struct Frame {
  size_t layer;
  int64_t wall0, cpu0;
  int64_t child_wall, child_cpu;  // spent in nested layer calls
};
constexpr int kMaxDepth = 32;
thread_local Frame tl_stack[kMaxDepth];
thread_local int tl_depth = 0;

int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void add(std::atomic<uint64_t>& a, uint64_t v) {
  a.fetch_add(v, std::memory_order_relaxed);
}

uint64_t load(const std::atomic<uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

// Pushes a frame for one call into `layer`; the destructor pops it,
// charges the call's whole time to the caller's frame as child time and,
// if commit() was called, adds the call's self time to the layer. A
// failed call (error or timeout) contributes no time: it did no work for
// any message.
class LayerScope {
 public:
  explicit LayerScope(size_t layer) : pushed_(tl_depth < kMaxDepth) {
    if (pushed_)
      tl_stack[tl_depth++] = {layer, clock_ns(CLOCK_MONOTONIC),
                              clock_ns(CLOCK_THREAD_CPUTIME_ID), 0, 0};
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

  void commit(bool send, uint64_t msgs) {
    committed_ = true;
    send_ = send;
    msgs_ = msgs;
  }

  ~LayerScope() {
    if (!pushed_) return;
    const Frame f = tl_stack[--tl_depth];
    int64_t wall = clock_ns(CLOCK_MONOTONIC) - f.wall0;
    int64_t cpu = clock_ns(CLOCK_THREAD_CPUTIME_ID) - f.cpu0;
    if (tl_depth > 0) {
      tl_stack[tl_depth - 1].child_wall += wall;
      tl_stack[tl_depth - 1].child_cpu += cpu;
    }
    if (!committed_) return;
    LayerCounters& c = g_layers[f.layer];
    uint64_t self_wall = static_cast<uint64_t>(std::max<int64_t>(0, wall - f.child_wall));
    uint64_t self_cpu = static_cast<uint64_t>(std::max<int64_t>(0, cpu - f.child_cpu));
    add(send_ ? c.send_ns : c.recv_ns, self_wall);
    add(c.cpu_ns, self_cpu);
    add(send_ ? c.sends : c.recvs, msgs_);
  }

 private:
  bool pushed_;
  bool committed_ = false;
  bool send_ = false;
  uint64_t msgs_ = 0;
};

class TimedConnection final : public Connection {
 public:
  TimedConnection(ConnPtr inner, size_t layer)
      : inner_(std::move(inner)), layer_(layer) {}

  Result<void> send(Msg m) override {
    LayerScope scope(layer_);
    auto r = inner_->send(std::move(m));
    if (r.ok()) scope.commit(true, 1);
    return r;
  }

  Result<void> send_batch(std::span<Msg> msgs) override {
    LayerScope scope(layer_);
    auto r = inner_->send_batch(msgs);
    if (r.ok()) scope.commit(true, msgs.size());
    return r;
  }

  Result<Msg> recv(Deadline deadline) override {
    LayerScope scope(layer_);
    auto r = inner_->recv(deadline);
    if (r.ok()) scope.commit(false, 1);
    return r;
  }

  const Addr& local_addr() const override { return inner_->local_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }
  void close() override { inner_->close(); }

 private:
  ConnPtr inner_;
  size_t layer_;
};

class TimedImpl final : public ChunnelImpl {
 public:
  TimedImpl(ChunnelImplPtr impl, size_t layer)
      : impl_(std::move(impl)), layer_(layer) {}

  const ImplInfo& info() const override { return impl_->info(); }
  Result<void> init() override { return impl_->init(); }
  void teardown() override { impl_->teardown(); }
  Result<void> on_listen(ListenContext& ctx) override {
    return impl_->on_listen(ctx);
  }

  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override {
    // No decorator below us yet: this is the innermost decorated layer,
    // so `inner` is the base connection.
    if (!dynamic_cast<TimedConnection*>(inner.get()))
      inner = std::make_shared<TimedConnection>(std::move(inner), kBaseLayer);
    int64_t t0 = clock_ns(CLOCK_MONOTONIC);
    auto r = impl_->wrap(std::move(inner), ctx);
    add(g_layers[layer_].wrap_ns,
        static_cast<uint64_t>(clock_ns(CLOCK_MONOTONIC) - t0));
    add(g_layers[layer_].wraps, 1);
    {
      std::lock_guard<std::mutex> lk(g_bound_mu);
      g_bound.insert(impl_->info().name);
    }
    if (!r.ok()) return r;
    return ConnPtr(
        std::make_shared<TimedConnection>(std::move(r).value(), layer_));
  }

 private:
  ChunnelImplPtr impl_;
  size_t layer_;
};

class TimedDiscovery final : public DiscoveryClient {
 public:
  explicit TimedDiscovery(DiscoveryPtr inner) : inner_(std::move(inner)) {}

  Result<void> register_impl(const ImplInfo& info) override {
    return counted(inner_->register_impl(info));
  }
  Result<void> unregister_impl(const std::string& type,
                               const std::string& name) override {
    return counted(inner_->unregister_impl(type, name));
  }
  Result<std::vector<ImplInfo>> query(const std::string& type) override {
    return timed(g_discovery.queries, g_discovery.query_ns,
                 [&] { return inner_->query(type); });
  }
  Result<uint64_t> acquire(const std::vector<ResourceReq>& reqs) override {
    return timed(g_discovery.acquires, g_discovery.acquire_ns,
                 [&] { return inner_->acquire(reqs); });
  }
  Result<void> release(uint64_t alloc_id) override {
    return timed(g_discovery.releases, g_discovery.release_ns,
                 [&] { return inner_->release(alloc_id); });
  }
  Result<void> set_pool(const std::string& pool, uint64_t capacity) override {
    return counted(inner_->set_pool(pool, capacity));
  }
  Result<WatcherPtr> watch(const std::string& type_filter) override {
    return counted(inner_->watch(type_filter));
  }
  bool degraded() const override { return inner_->degraded(); }

 private:
  template <typename R>
  static R counted(R r) {
    add(g_discovery.calls, 1);
    if (!r.ok()) add(g_discovery.failed, 1);
    return r;
  }

  template <typename F>
  static auto timed(std::atomic<uint64_t>& n, std::atomic<uint64_t>& ns, F f)
      -> decltype(f()) {
    int64_t t0 = clock_ns(CLOCK_MONOTONIC);
    auto r = f();
    add(ns, static_cast<uint64_t>(clock_ns(CLOCK_MONOTONIC) - t0));
    add(n, 1);
    return counted(std::move(r));
  }

  DiscoveryPtr inner_;
};

}  // namespace

LayerTotals LayerTotals::operator-(const LayerTotals& o) const {
  LayerTotals d;
  d.send_ns = send_ns - o.send_ns;
  d.recv_ns = recv_ns - o.recv_ns;
  d.cpu_ns = cpu_ns - o.cpu_ns;
  d.sends = sends - o.sends;
  d.recvs = recvs - o.recvs;
  d.allocs = allocs - o.allocs;
  d.alloc_bytes = alloc_bytes - o.alloc_bytes;
  d.wrap_ns = wrap_ns - o.wrap_ns;
  d.wraps = wraps - o.wraps;
  return d;
}

std::array<LayerTotals, kLayers> layer_snapshot() {
  std::array<LayerTotals, kLayers> out;
  for (size_t l = 0; l < kLayers; l++) {
    const LayerCounters& c = g_layers[l];
    out[l] = {load(c.send_ns), load(c.recv_ns), load(c.cpu_ns),
              load(c.sends),   load(c.recvs),   load(c.allocs),
              load(c.alloc_bytes), load(c.wrap_ns), load(c.wraps)};
  }
  return out;
}

DiscoveryTotals DiscoveryTotals::operator-(const DiscoveryTotals& o) const {
  return {queries - o.queries,   query_ns - o.query_ns,
          acquires - o.acquires, acquire_ns - o.acquire_ns,
          releases - o.releases, release_ns - o.release_ns,
          calls - o.calls,       failed - o.failed};
}

DiscoveryTotals discovery_snapshot() {
  const DiscoveryCounters& c = g_discovery;
  return {load(c.queries),  load(c.query_ns),  load(c.acquires),
          load(c.acquire_ns), load(c.releases), load(c.release_ns),
          load(c.calls),    load(c.failed)};
}

std::set<std::string> take_bound_impls() {
  std::lock_guard<std::mutex> lk(g_bound_mu);
  return std::exchange(g_bound, {});
}

Result<void> register_stock(Runtime& rt, bool timed) {
  BERTHA_TRY(register_builtin_chunnels(rt));
  if (!timed) return ok();
  for (size_t l = 0; l < kChunnelTypes.size(); l++) {
    for (const ChunnelImplPtr& impl :
         rt.registry().lookup_type(kChunnelTypes[l])) {
      const ImplInfo info = impl->info();
      BERTHA_TRY(rt.registry().unregister_impl(info.type, info.name));
      BERTHA_TRY(rt.register_chunnel(std::make_shared<TimedImpl>(impl, l)));
    }
  }
  return ok();
}

DiscoveryPtr timed_discovery(DiscoveryPtr inner) {
  return std::make_shared<TimedDiscovery>(std::move(inner));
}

}  // namespace perfbench

// Counting allocator: attributes each allocation to the layer whose call
// is open on top of this thread's stack. Outside decorated calls (every
// thread of the untraced run) it costs one thread-local load.
namespace {
void count_alloc(std::size_t n) {
  using namespace perfbench;
  if (int d = tl_depth; d > 0) {
    auto& c = g_layers[tl_stack[d - 1].layer];
    c.allocs.fetch_add(1, std::memory_order_relaxed);
    c.alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t n) {
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (!h) throw std::bad_alloc();
    h();
  }
}
}  // namespace

void* operator new(std::size_t n) {
  count_alloc(n);
  return checked_malloc(n);
}
void* operator new[](std::size_t n) {
  count_alloc(n);
  return checked_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
