#include "io/reactor.hpp"

#include <sys/epoll.h>

#include <cerrno>

namespace bertha {

namespace {
// epoll user-data tag for the shutdown eventfd; real ids start at 1.
constexpr uint64_t kWakeTag = 0;
}  // namespace

Result<ReactorPtr> Reactor::create() { return create(Options{}); }

Result<ReactorPtr> Reactor::create(Options opts) {
  if (opts.workers < 1) opts.workers = 1;
  if (opts.batch_size == 0) opts.batch_size = 1;
  Fd ep(::epoll_create1(EPOLL_CLOEXEC));
  if (!ep.valid()) return errno_error(Errc::io_error, "epoll_create1");
  BERTHA_TRY_ASSIGN(wake, make_wake_eventfd());
  // The wake eventfd is level-triggered and never drained: once fired at
  // shutdown, every worker's epoll_wait returns immediately.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(ep.get(), EPOLL_CTL_ADD, wake.get(), &ev) < 0)
    return errno_error(Errc::io_error, "epoll_ctl add wake");
  auto r = std::shared_ptr<Reactor>(
      new Reactor(opts, std::move(ep), std::move(wake)));
  // Workers capture the raw pointer: the destructor joins them (via
  // shutdown) before any member is torn down, and a shared_ptr capture
  // would cycle and leak the reactor.
  for (int i = 0; i < opts.workers; i++)
    r->workers_.emplace_back([raw = r.get()] { raw->worker_loop(); });
  return r;
}

Reactor::Reactor(Options opts, Fd epoll, Fd wake)
    : opts_(std::move(opts)), epoll_(std::move(epoll)), wake_(std::move(wake)) {}

Reactor::~Reactor() { shutdown(); }

Result<uint64_t> Reactor::add(std::shared_ptr<Transport> transport,
                              Handler handler) {
  if (!transport || !handler)
    return err(Errc::invalid_argument, "reactor needs a transport and handler");
  auto reg = std::make_shared<Reg>();
  reg->transport = std::move(transport);
  reg->handler = std::move(handler);
  reg->fd = reg->transport->poll_fd();
  if (reg->fd < 0)
    return err(Errc::invalid_argument, "transport has no readiness fd");
  reg->buf.resize(opts_.batch_size);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return err(Errc::cancelled, "reactor shut down");
    reg->id = next_id_++;
    regs_[reg->id] = reg;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = reg->id;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, reg->fd, &ev) < 0) {
    Error e = errno_error(Errc::io_error, "epoll_ctl add");
    std::lock_guard<std::mutex> lk(mu_);
    regs_.erase(reg->id);
    return e;
  }
  return reg->id;
}

void Reactor::remove(uint64_t id) {
  RegPtr reg;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = regs_.find(id);
    if (it == regs_.end()) return;
    reg = it->second;
    regs_.erase(it);
  }
  reg->dead.store(true, std::memory_order_release);
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, reg->fd, nullptr);
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !reg->running; });
}

void Reactor::shutdown() {
  std::vector<RegPtr> regs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& [id, reg] : regs_) regs.push_back(reg);
    regs_.clear();
  }
  for (auto& reg : regs) {
    reg->dead.store(true, std::memory_order_release);
    (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, reg->fd, nullptr);
  }
  fire_wake_eventfd(wake_.get());
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  TimerWheelPtr wheel;
  {
    std::lock_guard<std::mutex> lk(wheel_mu_);
    wheel = std::move(wheel_);
  }
  if (wheel) wheel->stop();
}

TimerWheelPtr Reactor::wheel() {
  std::lock_guard<std::mutex> lk(wheel_mu_);
  if (!wheel_) {
    {
      std::lock_guard<std::mutex> slk(mu_);
      if (stopping_) return nullptr;
    }
    TimerWheel::Options wopts;
    wopts.tick = opts_.wheel_tick;
    wopts.slots = opts_.wheel_slots;
    wopts.metrics = opts_.metrics;
    wheel_ = TimerWheel::create(wopts);
    if (opts_.metrics) attach_timer_wheel_provider(*opts_.metrics, wheel_);
  }
  return wheel_;
}

Reactor::Stats Reactor::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

bool Reactor::drain(const RegPtr& reg) {
  for (;;) {
    if (reg->dead.load(std::memory_order_acquire)) return false;
    // Expired deadline == non-blocking poll of the already-readable
    // socket; blocking here would pin the worker to one endpoint.
    auto r = bertha::recv_batch(*reg->transport,
                                std::span<Datagram>(reg->buf),
                                Deadline::after(Duration::zero()));
    if (!r.ok())
      return r.error().code == Errc::timed_out;  // dry: re-arm; else retire
    size_t n = r.value();
    if (n == 0) return true;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.batches++;
      stats_.datagrams += n;
    }
    metrics_add(opts_.metrics, "io.reactor.batches");
    metrics_add(opts_.metrics, "io.reactor.datagrams", n);
    reg->handler(std::span<Datagram>(reg->buf.data(), n));
    if (n < reg->buf.size()) return true;  // socket likely dry
  }
}

void Reactor::worker_loop() {
  for (;;) {
    epoll_event evs[16];
    int rc = ::epoll_wait(epoll_.get(), evs, 16, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.polls++;
      if (stopping_) return;
    }
    for (int i = 0; i < rc; i++) {
      uint64_t id = evs[i].data.u64;
      if (id == kWakeTag) continue;  // shutdown checked above
      RegPtr reg;
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = regs_.find(id);
        if (it == regs_.end()) continue;
        reg = it->second;
        if (reg->running) continue;  // paranoia: ONESHOT should prevent this
        reg->running = true;
      }
      bool rearm = drain(reg);
      {
        // Re-arm before clearing `running`: remove() cannot return (and
        // its caller close the transport, freeing the fd number for
        // reuse) until this block is done. A registration whose
        // transport closed stays disarmed until remove() or shutdown().
        // The worker drops its ref in here too, while remove()'s or the
        // table's ref is still held: a worker never destroys a handler,
        // and with it whatever owns the reactor.
        std::lock_guard<std::mutex> lk(mu_);
        if (rearm && !reg->dead.load(std::memory_order_acquire)) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLONESHOT;
          ev.data.u64 = id;
          (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, reg->fd, &ev);
        }
        reg->running = false;
        reg.reset();
      }
      cv_.notify_all();
    }
  }
}

}  // namespace bertha
