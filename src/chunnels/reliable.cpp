#include "chunnels/reliable.hpp"

#include <condition_variable>
#include <deque>
#include <map>
#include <utility>

#include "io/timer_wheel.hpp"
#include "serialize/codec.hpp"

namespace bertha {

namespace {

constexpr uint8_t kData = 1;     // [seq] [payload]; still decoded
constexpr uint8_t kAck = 2;      // [next expected]
constexpr uint8_t kDataAck = 3;  // [seq] [next expected] [payload]

// Received but not yet consumed (in order or out of order). Past this a
// frame is neither accepted nor acked, so the sender keeps it and
// retransmits it once the reader has caught up.
constexpr size_t kMaxBuffered = 4096;

// Frames drained per wheel fire, so one busy connection cannot hold the
// shared tick thread.
constexpr int kDrainPerTimer = 64;

Bytes encode_data(uint64_t seq, uint64_t next_expected, BytesView payload) {
  Bytes buf;
  buf.reserve(1 + 2 * 10 + payload.size());  // kind, two varints, payload
  Writer w(std::move(buf));
  w.put_u8(kDataAck);
  w.put_varint(seq);
  w.put_varint(next_expected);
  w.put_raw(payload);
  return std::move(w).take();
}

Bytes encode_ack(uint64_t next_expected) {
  Writer w;
  w.put_u8(kAck);
  w.put_varint(next_expected);
  return std::move(w).take();
}

// ARQ without a thread of its own. Inbound traffic is pulled by whoever
// needs it: a recv() caller, or a send() blocked on a full window. One
// thread pulls at a time (pulling_), with mu_ released across the inner
// recv; every other waiter sleeps on cv_, which is notified on every
// state change. Retransmission, owed acks and draining of arrived acks
// run from one one-shot wheel entry, armed only while something is
// unacked or an ack is owed. Acks ride on outgoing data; a pure ack goes
// out for a duplicate or out-of-order arrival, when the reader asks for
// more with nothing buffered, when the wheel entry fires, and on close.
class ReliableConnection final
    : public Connection,
      public std::enable_shared_from_this<ReliableConnection> {
 public:
  ReliableConnection(ConnPtr inner, ReliableOptions opts, TimerWheelPtr wheel)
      : inner_(std::move(inner)), opts_(opts), wheel_(std::move(wheel)) {}

  ~ReliableConnection() override { close(); }

  Result<void> send(Msg m) override {
    Bytes wire;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Flow control: block while the window is full, pulling acks.
      Deadline give_up = Deadline::after(opts_.send_timeout);
      bool progressed = true;
      while (in_flight_.size() >= opts_.window) {
        if (closed_) return err(Errc::cancelled, "connection closed");
        if (eof_) return err(Errc::unavailable, "inner connection ended");
        if (!progressed && give_up.expired())
          return err(Errc::timed_out, "reliable send window stalled");
        progressed = pump(lk, give_up);
      }
      if (closed_) return err(Errc::cancelled, "connection closed");
      uint64_t seq = next_send_seq_++;
      auto& p = in_flight_[seq];
      p.payload = std::move(m.payload);
      p.sent_at = now();
      wire = encode_data(seq, next_recv_seq_, p.payload);
      ack_owed_ = false;
      arm_locked();
    }
    Msg out;
    out.dst = std::move(m.dst);
    out.payload = std::move(wire);
    return inner_->send(std::move(out));
  }

  Result<Msg> recv(Deadline deadline) override {
    std::unique_lock<std::mutex> lk(mu_);
    bool progressed = true;
    for (;;) {
      if (!ready_.empty()) {
        Msg m = std::move(ready_.front());
        ready_.pop_front();
        return m;
      }
      if (closed_ || eof_) return err(Errc::cancelled, "connection closed");
      if (ack_owed_) {
        // Everything received is consumed and no reply carried the ack.
        ack_owed_ = false;
        uint64_t next = next_recv_seq_;
        lk.unlock();
        send_ack(next);
        lk.lock();
        continue;
      }
      if (!progressed && deadline.expired())
        return err(Errc::timed_out, "reliable recv deadline expired");
      progressed = pump(lk, deadline);
    }
  }

  const Addr& local_addr() const override { return inner_->local_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }

  void close() override {
    uint64_t timer;
    bool final_ack;
    uint64_t next;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return;
      closed_ = true;
      timer = std::exchange(timer_id_, 0);
      final_ack = ack_owed_ && !eof_;
      next = next_recv_seq_;
    }
    cv_.notify_all();
    // Async cancel is enough: a fire already in flight sees closed_.
    if (timer)
      if (auto w = wheel_.lock()) (void)w->cancel(timer);
    if (final_ack) send_ack(next);
    inner_->close();  // wakes a pulling thread parked in inner_->recv
  }

 private:
  struct Pending {
    Bytes payload;
    TimePoint sent_at;
  };

  // Called with lk held. Pulls and handles one frame from inner_ (lk
  // released across the pull), or, if another thread is
  // pulling, waits for its next state change. False iff nothing happened
  // before `deadline`.
  bool pump(std::unique_lock<std::mutex>& lk, Deadline deadline) {
    if (pulling_) {
      if (deadline.is_never()) {
        cv_.wait(lk);
        return true;
      }
      return cv_.wait_until(lk, deadline.as_time_point()) !=
             std::cv_status::timeout;
    }
    pulling_ = true;
    lk.unlock();
    auto r = inner_->recv(deadline);
    lk.lock();
    pulling_ = false;
    bool ack_now = false;
    if (r.ok()) {
      ack_now = on_frame_locked(std::move(r).value());
    } else if (r.error().code != Errc::timed_out) {
      eof_ = true;  // cancelled/unavailable: the reader sees EOF
    }
    cv_.notify_all();
    if (ack_now && !closed_) {
      uint64_t next = next_recv_seq_;
      lk.unlock();
      send_ack(next);
      lk.lock();
    }
    return r.ok() || r.error().code != Errc::timed_out;
  }

  // Applies one inbound frame. True when a pure ack must go out at once
  // (a duplicate or out-of-order arrival: the peer's view is stale).
  bool on_frame_locked(Msg m) {
    Reader r(m.payload);
    auto kind = r.get_u8();
    auto seq = r.get_varint();
    if (!kind.ok() || !seq.ok()) return false;
    if (kind.value() == kAck) {
      release_locked(seq.value());
      return false;
    }
    if (kind.value() == kDataAck) {
      auto ack = r.get_varint();
      if (!ack.ok()) return false;
      release_locked(ack.value());
    } else if (kind.value() != kData) {
      return false;
    }
    uint64_t s = seq.value();
    if (s < next_recv_seq_ || reorder_.count(s)) return true;  // duplicate
    // Further ahead than any window allows: corrupt, drop silently.
    if (s - next_recv_seq_ >= opts_.window * 4) return false;
    if (ready_.size() + reorder_.size() >= kMaxBuffered) return false;
    Msg out;
    out.src = std::move(m.src);
    m.payload.erase(m.payload.begin(),
                    m.payload.end() - static_cast<ptrdiff_t>(r.rest().size()));
    out.payload = std::move(m.payload);
    if (s != next_recv_seq_) {
      reorder_.emplace(s, std::move(out));
      return true;
    }
    ready_.push_back(std::move(out));
    next_recv_seq_++;
    for (auto it = reorder_.begin();
         it != reorder_.end() && it->first == next_recv_seq_;
         it = reorder_.erase(it)) {
      ready_.push_back(std::move(it->second));
      next_recv_seq_++;
    }
    ack_owed_ = true;
    arm_locked();
    return false;
  }

  // Cumulative: everything below next_expected is delivered. An ack for
  // a sequence number never sent is forged or corrupt and is ignored.
  void release_locked(uint64_t next_expected) {
    if (next_expected > next_send_seq_) return;
    for (auto it = in_flight_.begin();
         it != in_flight_.end() && it->first < next_expected;)
      it = in_flight_.erase(it);
  }

  void arm_locked() {
    if (timer_id_ || closed_ || (in_flight_.empty() && !ack_owed_)) return;
    auto w = wheel_.lock();
    if (!w) return;
    std::weak_ptr<ReliableConnection> self = weak_from_this();
    timer_id_ = w->schedule(opts_.rto / 2, [self] {
      if (auto c = self.lock()) c->on_timer();
    });
  }

  // Wheel thread: must not block, so it pulls only with an expired
  // deadline and only when no other thread is pulling.
  void on_timer() {
    std::vector<Bytes> wire;
    {
      std::unique_lock<std::mutex> lk(mu_);
      timer_id_ = 0;
      if (closed_) return;
      // Acks that already arrived release entries before they look due.
      for (int i = 0; i < kDrainPerTimer && !pulling_ && !eof_; i++)
        if (!pump(lk, Deadline::after(Duration::zero()))) break;
      if (closed_) return;
      auto t = now();
      for (auto& [seq, p] : in_flight_) {
        if (t - p.sent_at < opts_.rto) continue;
        p.sent_at = t;
        wire.push_back(encode_data(seq, next_recv_seq_, p.payload));
        ack_owed_ = false;
      }
      if (ack_owed_) {
        ack_owed_ = false;
        wire.push_back(encode_ack(next_recv_seq_));
      }
      arm_locked();
    }
    for (auto& b : wire) {
      Msg out;
      out.payload = std::move(b);
      (void)inner_->send(std::move(out));
    }
  }

  void send_ack(uint64_t next_expected) {
    Msg ack;
    ack.payload = encode_ack(next_expected);
    (void)inner_->send(std::move(ack));
  }

  ConnPtr inner_;
  ReliableOptions opts_;
  std::weak_ptr<TimerWheel> wheel_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  bool eof_ = false;      // inner_ reported cancelled/unavailable
  bool pulling_ = false;  // some thread is inside inner_->recv
  bool ack_owed_ = false;  // accepted data not yet acked
  uint64_t timer_id_ = 0;  // armed wheel entry, 0 if none
  uint64_t next_send_seq_ = 0;
  uint64_t next_recv_seq_ = 0;
  std::map<uint64_t, Pending> in_flight_;  // unacked, by seq
  std::deque<Msg> ready_;                  // in order, not yet consumed
  std::map<uint64_t, Msg> reorder_;        // out-of-order arrivals
};

}  // namespace

ReliableChunnel::ReliableChunnel(ReliableOptions opts) : opts_(opts) {
  info_.type = "reliable";
  info_.name = "reliable/arq";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = 0;  // the fallback
}

Result<ConnPtr> ReliableChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  ReliableOptions opts = opts_;
  opts.rto = us(static_cast<int64_t>(ctx.args.get_u64_or(
      "rto_us", static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        opts_.rto)
                        .count()))));
  opts.window = ctx.args.get_u64_or("window", opts_.window);
  return ConnPtr(std::make_shared<ReliableConnection>(
      std::move(inner), opts, ctx.wheel ? ctx.wheel : process_wheel()));
}

NopReliableChunnel::NopReliableChunnel() {
  info_.type = "reliable";
  info_.name = "reliable/nop";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = -10;  // only when policy explicitly prefers it
}

Result<ConnPtr> NopReliableChunnel::wrap(ConnPtr inner, WrapContext&) {
  return ConnPtr(std::make_shared<PassthroughConnection>(std::move(inner)));
}

}  // namespace bertha
