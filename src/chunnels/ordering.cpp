#include "chunnels/ordering.hpp"

#include <map>

#include "serialize/codec.hpp"

namespace bertha {

namespace {

// Inline (no helper thread): recv() drives the reorder buffer. Gap
// skipping happens when the head-of-line wait exceeds gap_timeout.
class OrderingConnection final : public Connection {
 public:
  OrderingConnection(ConnPtr inner, OrderingOptions opts)
      : inner_(std::move(inner)), opts_(opts) {}

  Result<void> send(Msg m) override {
    Writer w;
    {
      std::lock_guard<std::mutex> lk(send_mu_);
      w.put_varint(next_send_seq_++);
    }
    w.put_raw(m.payload);
    m.payload = std::move(w).take();
    return inner_->send(std::move(m));
  }

  Result<Msg> recv(Deadline deadline) override {
    std::lock_guard<std::mutex> lk(mu_);
    for (;;) {
      // Deliverable from the buffer?
      if (!buffer_.empty()) {
        auto it = buffer_.begin();
        if (it->first == next_recv_seq_) {
          Msg m = std::move(it->second);
          buffer_.erase(it);
          next_recv_seq_++;
          gap_since_.reset();
          return m;
        }
        // Head-of-line gap: skip it once it has aged out.
        if (!gap_since_) gap_since_ = now();
        if (now() - *gap_since_ >= opts_.gap_timeout ||
            buffer_.size() >= opts_.max_buffer) {
          next_recv_seq_ = it->first;  // declare the gap lost
          gap_since_.reset();
          continue;
        }
      }
      // Pull more from below, bounded by both the caller's deadline and
      // the gap timeout so we wake up to skip.
      Deadline pull = deadline;
      if (gap_since_) {
        auto gap_deadline = *gap_since_ + opts_.gap_timeout;
        if (gap_deadline < deadline.as_time_point())
          pull = Deadline::at(gap_deadline);
      }
      auto m_r = inner_->recv(pull);
      if (!m_r.ok()) {
        if (m_r.error().code == Errc::timed_out && gap_since_ &&
            !deadline.expired())
          continue;  // the gap timer fired, not the caller's deadline
        return m_r.error();
      }
      Msg m = std::move(m_r).value();
      Reader r(m.payload);
      auto seq_r = r.get_varint();
      if (!seq_r.ok()) continue;  // malformed: drop
      uint64_t seq = seq_r.value();
      if (seq < next_recv_seq_) continue;  // stale duplicate
      Msg out;
      out.src = std::move(m.src);
      out.dst = std::move(m.dst);
      out.payload.assign(r.rest().begin(), r.rest().end());
      buffer_.emplace(seq, std::move(out));
    }
  }

  const Addr& local_addr() const override { return inner_->local_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }
  void close() override { inner_->close(); }

 private:
  ConnPtr inner_;
  OrderingOptions opts_;
  // Not under mu_: recv() holds mu_ across the blocking inner recv, and
  // a send must not wait for it.
  std::mutex send_mu_;
  uint64_t next_send_seq_ = 0;
  std::mutex mu_;  // receive state
  uint64_t next_recv_seq_ = 0;
  std::map<uint64_t, Msg> buffer_;
  std::optional<TimePoint> gap_since_;
};

}  // namespace

OrderingChunnel::OrderingChunnel(OrderingOptions opts) : opts_(opts) {
  info_.type = "ordering";
  info_.name = "ordering/buffer";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::both;
  info_.priority = 0;
}

Result<ConnPtr> OrderingChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  OrderingOptions opts = opts_;
  opts.gap_timeout = us(static_cast<int64_t>(ctx.args.get_u64_or(
      "gap_timeout_us",
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(opts_.gap_timeout)
              .count()))));
  return ConnPtr(std::make_shared<OrderingConnection>(std::move(inner), opts));
}

}  // namespace bertha
