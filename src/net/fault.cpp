#include "net/fault.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>

#include <algorithm>
#include <utility>

#include "io/timer_wheel.hpp"

namespace bertha {

FaultInjectingTransport::FaultInjectingTransport(TransportPtr inner,
                                                 Options opts)
    : inner_(std::move(inner)), opts_(opts), rng_(opts.seed) {
  opts_.drop = std::clamp(opts_.drop, 0.0, 1.0);
  opts_.duplicate = std::clamp(opts_.duplicate, 0.0, 1.0);
  opts_.reorder = std::clamp(opts_.reorder, 0.0, 1.0);
  opts_.delay = std::clamp(opts_.delay, 0.0, 1.0);
  if (opts_.delay_max < opts_.delay_min) opts_.delay_max = opts_.delay_min;
}

FaultInjectingTransport::~FaultInjectingTransport() { close(); }

Result<void> FaultInjectingTransport::send_to(const Addr& dst,
                                              BytesView payload) {
  std::optional<std::pair<Addr, Bytes>> flush;
  bool dup = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    n_.sent++;
    if (send_filter_ && send_filter_(dst, payload)) {
      n_.tx_dropped++;
      return {};
    }
    if (tx_partitioned_ || rng_.chance(opts_.drop)) {
      n_.tx_dropped++;
      return {};
    }
    dup = rng_.chance(opts_.duplicate);
    if (dup) n_.tx_duplicated++;
    if (rng_.chance(opts_.delay)) {
      n_.tx_delayed++;
      Duration extra(
          rng_.next_in(opts_.delay_min.count(), opts_.delay_max.count()));
      // One wheel entry per delayed datagram. It holds the inner
      // transport rather than this decorator, so it needs no cancel: a
      // datagram due after close() meets a closed transport and is lost.
      process_wheel()->schedule(
          extra, [inner = inner_, dst,
                  bytes = Bytes(payload.begin(), payload.end())] {
            (void)inner->send_to(dst, bytes);
          });
      if (!dup) return {};
      // A duplicated+delayed datagram: one copy now, one later.
      dup = false;
    } else if (!tx_held_ && rng_.chance(opts_.reorder)) {
      // Hold this datagram; it goes out right after the next send, i.e.
      // the pair arrives swapped.
      n_.tx_reordered++;
      tx_held_.emplace(dst, Bytes(payload.begin(), payload.end()));
      return {};
    }
    if (tx_held_) {
      flush = std::move(tx_held_);
      tx_held_.reset();
    }
  }
  auto r = inner_->send_to(dst, payload);
  if (dup) (void)inner_->send_to(dst, payload);
  if (flush) (void)inner_->send_to(flush->first, flush->second);
  return r;
}

int FaultInjectingTransport::poll_fd() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (rx_poll_.valid()) return rx_poll_.get();
  int inner_fd = inner_->poll_fd();
  if (inner_fd < 0) return -1;
  bool held = rx_held_ || !rx_pending_.empty();
  Fd ep(::epoll_create1(EPOLL_CLOEXEC));
  Fd ready(::eventfd(held ? 1 : 0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!ep.valid() || !ready.valid()) return -1;
  for (int fd : {inner_fd, ready.get()}) {
    epoll_event ev{EPOLLIN, {}};
    if (::epoll_ctl(ep.get(), EPOLL_CTL_ADD, fd, &ev) < 0) return -1;
  }
  rx_ready_ = std::move(ready);
  rx_poll_ = std::move(ep);
  return rx_poll_.get();
}

FaultInjectingTransport::RxReadySync::~RxReadySync() {
  std::lock_guard<std::mutex> lk(t.mu_);
  if (!t.rx_ready_.valid()) return;
  uint64_t v = 1;
  if (t.rx_held_ || !t.rx_pending_.empty()) {
    (void)!::write(t.rx_ready_.get(), &v, sizeof(v));
  } else {
    (void)!::read(t.rx_ready_.get(), &v, sizeof(v));
  }
}

Result<Packet> FaultInjectingTransport::recv(Deadline deadline) {
  RxReadySync sync{*this};
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!rx_pending_.empty()) {
        Packet p = std::move(rx_pending_.front());
        rx_pending_.pop_front();
        n_.received++;
        return p;
      }
    }
    auto r = inner_->recv(deadline);
    if (!r.ok()) {
      // Don't strand a held (reordered) packet behind a quiet link.
      std::lock_guard<std::mutex> lk(mu_);
      if (rx_held_) {
        Packet p = std::move(*rx_held_);
        rx_held_.reset();
        n_.received++;
        return p;
      }
      return r;
    }
    Packet p = std::move(r).value();
    std::lock_guard<std::mutex> lk(mu_);
    if (recv_filter_ && recv_filter_(p.src, p.payload)) {
      n_.rx_dropped++;
      continue;
    }
    if (rx_partitioned_ || rng_.chance(opts_.drop)) {
      n_.rx_dropped++;
      continue;
    }
    if (rng_.chance(opts_.duplicate)) {
      n_.rx_duplicated++;
      rx_pending_.push_back(p);
    }
    if (!rx_held_ && rng_.chance(opts_.reorder)) {
      n_.rx_reordered++;
      rx_held_ = std::move(p);
      continue;
    }
    if (rx_held_) {
      rx_pending_.push_back(std::move(*rx_held_));
      rx_held_.reset();
    }
    n_.received++;
    return p;
  }
}

Result<size_t> FaultInjectingTransport::send_batch(
    std::span<const Datagram> batch) {
  // Per-datagram on purpose: each send draws its own fault decisions, so
  // a batched sender is chaos-tested exactly like an unbatched one.
  size_t sent = 0;
  for (const Datagram& d : batch) {
    BERTHA_TRY(send_to(d.dst, d.payload.view()));
    sent++;
  }
  return sent;
}

// The batch receive drains the scalar pipeline: the first datagram waits
// until `deadline`, the rest are taken only if already there. A short
// batch therefore leaves nothing behind in rx_pending_ or rx_held_.
Result<size_t> FaultInjectingTransport::recv_batch(std::span<Datagram> out,
                                                   Deadline deadline) {
  size_t n = 0;
  for (; n < out.size(); n++) {
    auto p = recv(n == 0 ? deadline : Deadline::after(Duration::zero()));
    if (!p.ok()) {
      if (n == 0) return p.error();
      break;
    }
    out[n].src = std::move(p.value().src);
    out[n].payload.assign(p.value().payload);
  }
  return n;
}

void FaultInjectingTransport::close() { inner_->close(); }

void FaultInjectingTransport::partition(bool tx, bool rx) {
  std::lock_guard<std::mutex> lk(mu_);
  tx_partitioned_ = tx;
  rx_partitioned_ = rx;
}

void FaultInjectingTransport::set_send_filter(Filter f) {
  std::lock_guard<std::mutex> lk(mu_);
  send_filter_ = std::move(f);
}

void FaultInjectingTransport::set_recv_filter(Filter f) {
  std::lock_guard<std::mutex> lk(mu_);
  recv_filter_ = std::move(f);
}

FaultInjectingTransport::Counters FaultInjectingTransport::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return n_;
}

Result<TransportPtr> FaultInjectingFactory::bind(const Addr& addr) {
  auto t = inner_->bind(addr);
  if (!t.ok()) return t;
  FaultInjectingTransport::Options opts = opts_;
  FaultInjectingTransport::Filter sf, rf;
  {
    std::lock_guard<std::mutex> lk(mu_);
    opts.seed = opts_.seed + 0x9e3779b97f4a7c15ull * ++binds_;
    sf = send_filter_;
    rf = recv_filter_;
  }
  auto* ft = new FaultInjectingTransport(std::move(t).value(), opts);
  if (sf) ft->set_send_filter(std::move(sf));
  if (rf) ft->set_recv_filter(std::move(rf));
  return TransportPtr(ft);
}

void FaultInjectingFactory::set_send_filter(FaultInjectingTransport::Filter f) {
  std::lock_guard<std::mutex> lk(mu_);
  send_filter_ = std::move(f);
}

void FaultInjectingFactory::set_recv_filter(FaultInjectingTransport::Filter f) {
  std::lock_guard<std::mutex> lk(mu_);
  recv_filter_ = std::move(f);
}

}  // namespace bertha
