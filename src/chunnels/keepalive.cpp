#include "chunnels/keepalive.hpp"

#include "io/timer_wheel.hpp"

namespace bertha {

namespace {

// Beats come from a periodic timer-wheel entry that fires every
// `interval` and sends the heartbeat from the wheel's tick thread: the
// runtime's wheel (ctx.wheel), or process_wheel() for a stack built
// without a runtime. An idle connection costs one wheel entry and zero
// threads — the property the 100k-connection soak asserts. Dead-peer
// detection is recv-side.
class KeepaliveConnection final
    : public Connection,
      public std::enable_shared_from_this<KeepaliveConnection> {
 public:
  KeepaliveConnection(ConnPtr inner, KeepaliveOptions opts,
                      ConnLivenessPtr liveness, TimerWheelPtr wheel)
      : inner_(std::move(inner)),
        opts_(opts),
        live_(liveness ? std::move(liveness)
                       : std::make_shared<ConnLiveness>()),
        wheel_(std::move(wheel)) {
    // Shared-liveness carry-over: a stack rebuilt mid-transition inherits
    // the previous epoch's timestamps, so a peer that went silent before
    // the cutover still trips dead_after on the original schedule. Only
    // a fresh connection (zero timestamps) starts the clocks at now.
    int64_t t = now().time_since_epoch().count();
    int64_t zero = 0;
    live_->last_sent.compare_exchange_strong(zero, t,
                                             std::memory_order_relaxed);
    zero = 0;
    live_->last_heard.compare_exchange_strong(zero, t,
                                              std::memory_order_relaxed);
  }

  // Called by wrap() right after make_shared (a weak_from_this inside
  // the constructor would be empty). The callback holds a weak self so
  // an abandoned connection can't be kept alive by its own timer; once
  // the weak expires the callback cancels itself.
  void arm() {
    std::weak_ptr<KeepaliveConnection> wself = weak_from_this();
    std::weak_ptr<TimerWheel> wwheel = wheel_;
    auto id = std::make_shared<uint64_t>(0);
    *id = wheel_->schedule_periodic(opts_.interval, [wself, wwheel, id] {
      if (auto self = wself.lock()) {
        self->beat_once();
      } else if (auto w = wwheel.lock()) {
        (void)w->cancel(*id);
      }
    });
    std::lock_guard<std::mutex> lk(mu_);
    timer_id_ = *id;
  }

  ~KeepaliveConnection() override { close(); }

  Result<void> send(Msg m) override {
    Bytes framed;
    framed.reserve(m.payload.size() + 2);
    framed.push_back('K');
    framed.push_back('D');
    append(framed, m.payload);
    m.payload = std::move(framed);
    live_->last_sent.store(now().time_since_epoch().count(),
                           std::memory_order_relaxed);
    return inner_->send(std::move(m));
  }

  Result<Msg> recv(Deadline deadline) override {
    for (;;) {
      // Wake at least every interval to check the silence threshold. A
      // stale last_heard alone is not a dead verdict: frames queued on the
      // inner transport are proof the peer spoke, so once the threshold
      // passes we switch to non-blocking pops and only an *empty* queue
      // plus silence condemns the peer. (A consumer that stays away from
      // recv longer than dead_after would otherwise false-kill a live
      // connection whose heartbeats were waiting the whole time.)
      auto silence_deadline =
          TimePoint(
              Duration(live_->last_heard.load(std::memory_order_relaxed))) +
          opts_.dead_after;
      bool silent = now() >= silence_deadline;
      Deadline slice =
          silent ? Deadline::after(Duration::zero()) : Deadline::at(silence_deadline);
      if (!deadline.is_never() &&
          deadline.as_time_point() < slice.as_time_point())
        slice = deadline;

      auto m = inner_->recv(slice);
      if (!m.ok()) {
        if (m.error().code == Errc::timed_out) {
          if (silent)
            return err(Errc::unavailable, "peer silent beyond dead_after");
          if (deadline.expired()) return m.error();
          continue;  // silence check fires at the top
        }
        return m.error();
      }
      live_->last_heard.store(now().time_since_epoch().count(),
                              std::memory_order_relaxed);
      const Bytes& p = m.value().payload;
      if (p.size() >= 2 && p[0] == 'K' && p[1] == 'H') continue;  // heartbeat
      if (p.size() < 2 || p[0] != 'K' || p[1] != 'D') continue;   // stray
      Msg out;
      out.src = std::move(m.value().src);
      out.dst = std::move(m.value().dst);
      out.payload.assign(p.begin() + 2, p.end());
      return out;
    }
  }

  const Addr& local_addr() const override { return inner_->local_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }

  void close() override {
    uint64_t timer = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return;
      closed_ = true;
      timer = timer_id_;
    }
    // Async cancel is enough: a beat that already started sees closed_
    // and returns without touching inner_ past its close().
    if (timer) (void)wheel_->cancel(timer);
    inner_->close();
  }

 private:
  // One beat: send a heartbeat iff the connection has been
  // send-idle for a full interval. Runs on the wheel tick thread, so it
  // must stay short — a datagram send, no waits.
  void beat_once() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return;
    }
    auto idle = now().time_since_epoch().count() -
                live_->last_sent.load(std::memory_order_relaxed);
    if (Duration(idle) < opts_.interval) return;  // traffic is flowing
    Msg hb;
    hb.payload = {'K', 'H'};
    (void)inner_->send(std::move(hb));
    live_->last_sent.store(now().time_since_epoch().count(),
                           std::memory_order_relaxed);
  }

  ConnPtr inner_;
  KeepaliveOptions opts_;
  ConnLivenessPtr live_;
  TimerWheelPtr wheel_;
  std::mutex mu_;
  bool closed_ = false;
  uint64_t timer_id_ = 0;  // guarded by mu_
};

}  // namespace

KeepaliveChunnel::KeepaliveChunnel(KeepaliveOptions opts) : opts_(opts) {
  info_.type = "keepalive";
  info_.name = "keepalive/heartbeat";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = 0;
}

Result<ConnPtr> KeepaliveChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  KeepaliveOptions opts = opts_;
  opts.interval = us(static_cast<int64_t>(ctx.args.get_u64_or(
      "interval_us",
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(opts_.interval)
              .count()))));
  opts.dead_after = us(static_cast<int64_t>(ctx.args.get_u64_or(
      "dead_after_us",
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                opts_.dead_after)
                                .count()))));
  auto conn = std::make_shared<KeepaliveConnection>(
      std::move(inner), opts, ctx.liveness,
      ctx.wheel ? ctx.wheel : process_wheel());
  conn->arm();
  return ConnPtr(conn);
}

}  // namespace bertha
