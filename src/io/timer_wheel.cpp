#include "io/timer_wheel.hpp"

#include <algorithm>

namespace bertha {

namespace {

size_t round_up_pow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::shared_ptr<TimerWheel> TimerWheel::create(Options opts) {
  auto w = std::shared_ptr<TimerWheel>(new TimerWheel(std::move(opts)));
  if (!w->opts_.manual) {
    w->driver_ = std::thread([w] { w->driver_loop(); });
  }
  return w;
}

TimerWheel::TimerWheel(Options opts) : opts_(std::move(opts)) {
  if (opts_.tick.count() <= 0) opts_.tick = ms(1);
  tick_ns_ = opts_.tick.count();
  size_t n = round_up_pow2(std::max<size_t>(opts_.slots, 2));
  mask_ = n - 1;
  slots_ = std::vector<Slot>(n);
  index_ = std::vector<Slot>(16);
  if (!opts_.manual) base_ns_ = steady_ns();
}

TimerWheel::~TimerWheel() { stop(); }

int64_t TimerWheel::now_ns() const {
  if (opts_.manual) return manual_now_.load(std::memory_order_acquire);
  return steady_ns() - base_ns_;
}

uint64_t TimerWheel::schedule(Duration delay, Callback cb) {
  return arm(delay, 0, std::move(cb));
}

uint64_t TimerWheel::schedule_periodic(Duration period, Callback cb) {
  if (period.count() <= 0) period = opts_.tick;
  return arm(period, period.count(), std::move(cb));
}

uint64_t TimerWheel::arm(Duration delay, int64_t period_ns, Callback cb) {
  auto e = std::make_shared<Entry>();
  e->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  int64_t d = std::max<int64_t>(delay.count(), 0);
  e->deadline_ns = now_ns() + d;
  e->period_ns = period_ns;
  e->cb = std::move(cb);
  // Round up to the tick boundary and never allow a deadline at or
  // before the last processed tick: a zero delay fires on the NEXT
  // tick, never inline and never "already missed".
  uint64_t t = uint64_t((e->deadline_ns + tick_ns_ - 1) / tick_ns_);
  uint64_t floor = last_tick_.load(std::memory_order_relaxed) + 1;
  e->deadline_tick = std::max(t, floor);
  {
    Slot& ix = index_[e->id & (index_.size() - 1)];
    std::lock_guard<std::mutex> lk(ix.mu);
    ix.entries.emplace(e->id, e);
  }
  insert(e);
  n_scheduled_.fetch_add(1, std::memory_order_relaxed);
  armed_.fetch_add(1);
  // Pull in a driver that would wake a tick or more past this entry
  // (parked on an empty wheel, or asleep toward a later first deadline).
  // A ticking driver wakes within a tick of any new entry, so this path
  // stays lock-free while the wheel is busy.
  int64_t due_ns = static_cast<int64_t>(e->deadline_tick) * tick_ns_;
  if (!opts_.manual && due_ns <= wake_ns_.load() - tick_ns_) {
    std::lock_guard<std::mutex> lk(stop_mu_);
    if (due_ns <= wake_ns_.load() - tick_ns_) {
      wake_ns_.store(due_ns);
      stop_cv_.notify_all();
    }
  }
  return e->id;
}

void TimerWheel::insert(const EntryPtr& e) {
  Slot& s = slots_[e->deadline_tick & mask_];
  std::lock_guard<std::mutex> lk(s.mu);
  s.entries.emplace(e->id, e);
}

bool TimerWheel::cancel(uint64_t id) {
  EntryPtr e;
  {
    Slot& ix = index_[id & (index_.size() - 1)];
    std::lock_guard<std::mutex> lk(ix.mu);
    auto it = ix.entries.find(id);
    if (it != ix.entries.end()) e = it->second;
  }
  if (!e) return false;
  int expected = kArmed;
  if (e->state.compare_exchange_strong(expected, kCancelled)) {
    // Won against the fire path: the callback will never run (again).
    {
      Slot& s = slots_[e->deadline_tick & mask_];
      std::lock_guard<std::mutex> lk(s.mu);
      s.entries.erase(id);
    }
    {
      Slot& ix = index_[id & (index_.size() - 1)];
      std::lock_guard<std::mutex> lk(ix.mu);
      ix.entries.erase(id);
    }
    armed_.fetch_sub(1, std::memory_order_relaxed);
    n_cancelled_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (expected == kFiring) {
    // Callback in flight: can't un-fire it, but suppress any periodic
    // re-arm so this invocation is the last.
    e->cancel_requested.store(true, std::memory_order_release);
  }
  return false;
}

void TimerWheel::cancel_sync(uint64_t id) {
  EntryPtr e;
  {
    Slot& ix = index_[id & (index_.size() - 1)];
    std::lock_guard<std::mutex> lk(ix.mu);
    auto it = ix.entries.find(id);
    if (it != ix.entries.end()) e = it->second;
  }
  cancel(id);
  if (!e) return;
  if (firing_thread_.load(std::memory_order_acquire) ==
      std::this_thread::get_id()) {
    return;  // self-cancel from inside the callback; no wait
  }
  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [&] {
    int s = e->state.load(std::memory_order_acquire);
    return s != kFiring;
  });
}

void TimerWheel::advance(Duration d) {
  if (!opts_.manual) return;  // the driver thread owns the clock
  int64_t now =
      manual_now_.fetch_add(d.count(), std::memory_order_acq_rel) + d.count();
  std::lock_guard<std::mutex> lk(advance_mu_);
  advance_to(now);
}

void TimerWheel::advance_to(int64_t now) {
  // Caller holds advance_mu_.
  uint64_t target = uint64_t(std::max<int64_t>(now, 0) / tick_ns_);
  uint64_t last = last_tick_.load(std::memory_order_relaxed);
  if (target <= last) return;
  due_scratch_.clear();
  uint64_t span = target - last;
  size_t nslots = mask_ + 1;
  if (span >= nslots) {
    // The gap covers every slot at least once (e.g. a test advancing
    // hours of virtual time): one pass over all slots with the final
    // cutoff, instead of billions of per-tick iterations.
    for (size_t i = 0; i < nslots; ++i) {
      process_slot(slots_[i], target, due_scratch_);
    }
    n_ticks_.fetch_add(nslots, std::memory_order_relaxed);
  } else {
    for (uint64_t t = last + 1; t <= target; ++t) {
      process_slot(slots_[t & mask_], target, due_scratch_);
    }
    n_ticks_.fetch_add(span, std::memory_order_relaxed);
  }
  last_tick_.store(target, std::memory_order_relaxed);
  if (!due_scratch_.empty()) fire(due_scratch_);
  due_scratch_.clear();
}

void TimerWheel::process_slot(Slot& slot, uint64_t cutoff_tick,
                              std::vector<EntryPtr>& due) {
  std::lock_guard<std::mutex> lk(slot.mu);
  for (auto it = slot.entries.begin(); it != slot.entries.end();) {
    if (it->second->deadline_tick <= cutoff_tick) {
      due.push_back(it->second);
      it = slot.entries.erase(it);
    } else {
      ++it;  // a later revolution of the wheel
    }
  }
}

void TimerWheel::fire(std::vector<EntryPtr>& due) {
  // Deterministic firing order (deadline, then id) so mass-expiry tests
  // and same-tick timers behave reproducibly.
  std::sort(due.begin(), due.end(), [](const EntryPtr& a, const EntryPtr& b) {
    if (a->deadline_tick != b->deadline_tick)
      return a->deadline_tick < b->deadline_tick;
    return a->id < b->id;
  });
  firing_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  uint64_t batch = 0;
  for (auto& e : due) {
    int expected = kArmed;
    if (!e->state.compare_exchange_strong(expected, kFiring)) {
      continue;  // cancel() won the race after we pulled it off the slot
    }
    e->cb();
    ++batch;
    n_fired_.fetch_add(1, std::memory_order_relaxed);
    bool rearm = e->period_ns > 0 &&
                 !e->cancel_requested.load(std::memory_order_acquire);
    if (rearm) {
      // Fixed multiples of the original deadline; skip missed periods
      // rather than bursting to catch up.
      int64_t nownow = now_ns();
      do {
        e->deadline_ns += e->period_ns;
      } while (e->deadline_ns <= nownow);
      uint64_t t = uint64_t((e->deadline_ns + tick_ns_ - 1) / tick_ns_);
      e->deadline_tick =
          std::max(t, last_tick_.load(std::memory_order_relaxed) + 1);
      e->state.store(kArmed, std::memory_order_release);
      insert(e);
    } else {
      e->state.store(kDone, std::memory_order_release);
      Slot& ix = index_[e->id & (index_.size() - 1)];
      {
        std::lock_guard<std::mutex> lk(ix.mu);
        ix.entries.erase(e->id);
      }
      armed_.fetch_sub(1, std::memory_order_relaxed);
    }
    // Wake any cancel_sync() waiting for this invocation to finish.
    {
      std::lock_guard<std::mutex> lk(done_mu_);
    }
    done_cv_.notify_all();
  }
  firing_thread_.store(std::thread::id(), std::memory_order_release);
  uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (batch > prev &&
         !max_batch_.compare_exchange_weak(prev, batch,
                                           std::memory_order_relaxed)) {
  }
}

void TimerWheel::driver_loop() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  for (;;) {
    // Sleep until wake_ns_ (forever while nothing is armed); arm() may
    // pull it in, which restarts the wait toward the earlier time.
    int64_t wake = wake_ns_.load();
    auto pulled_in = [&] { return stopping_ || wake_ns_.load() < wake; };
    bool woken = wake == kIdle
                     ? (stop_cv_.wait(lk, pulled_in), true)
                     : stop_cv_.wait_until(
                           lk, TimePoint(Duration(base_ns_ + wake)), pulled_in);
    if (stopping_) return;
    if (woken) continue;
    lk.unlock();
    n_wakeups_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> alk(advance_mu_);
      advance_to(now_ns());
    }
    lk.lock();
    // Entries left: keep the tick. None: park. An arm() racing this
    // either sees kIdle and pulls it in, or is seen here through armed_.
    wake_ns_.store(kIdle);
    if (armed_.load() > 0) wake_ns_.store(now_ns() + tick_ns_);
  }
}

void TimerWheel::stop() {
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  std::lock_guard<std::mutex> jlk(join_mu_);
  if (!driver_.joinable()) return;
  // Stopped from one of its own callbacks (say, one that dropped the last
  // reference to the runtime owning the wheel): a thread cannot join
  // itself. The driver leaves its loop after this tick, and its own
  // reference (create()'s capture) keeps the wheel alive until then.
  if (driver_.get_id() == std::this_thread::get_id())
    driver_.detach();
  else
    driver_.join();
}

TimerWheel::Stats TimerWheel::stats() const {
  Stats s;
  s.scheduled = n_scheduled_.load(std::memory_order_relaxed);
  s.fired = n_fired_.load(std::memory_order_relaxed);
  s.cancelled = n_cancelled_.load(std::memory_order_relaxed);
  s.ticks = n_ticks_.load(std::memory_order_relaxed);
  s.armed = armed_.load(std::memory_order_relaxed);
  s.max_fired_in_tick = max_batch_.load(std::memory_order_relaxed);
  s.wakeups = n_wakeups_.load(std::memory_order_relaxed);
  return s;
}

TimerWheelPtr process_wheel() {
  static const auto* wheel = new TimerWheelPtr([] {
    TimerWheel::Options o;
    o.tick = ms(1);
    return TimerWheel::create(o);
  }());
  return *wheel;
}

void attach_timer_wheel_provider(MetricsRegistry& m, TimerWheelPtr wheel) {
  m.attach_provider("timer_wheel", [wheel](MetricsRegistry::Snapshot& snap) {
    auto s = wheel->stats();
    snap.counters["scale.wheel.scheduled"] += s.scheduled;
    snap.counters["scale.wheel.fired"] += s.fired;
    snap.counters["scale.wheel.cancelled"] += s.cancelled;
    snap.counters["scale.wheel.ticks"] += s.ticks;
    snap.counters["scale.wheel.armed"] += s.armed;
    snap.counters["scale.wheel.max_fired_in_tick"] =
        std::max(snap.counters["scale.wheel.max_fired_in_tick"],
                 s.max_fired_in_tick);
  });
}

}  // namespace bertha
