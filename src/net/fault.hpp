// FaultInjectingTransport: a decorator over any Transport that injects
// seeded faults — drop, duplicate, reorder, delay, and one-way partition
// — so the fault-tolerance machinery (RPC retries, leases, degraded-mode
// negotiation, transition rollback) can be exercised deterministically.
//
// Probabilistic faults apply independently to the send and receive paths
// of the wrapped endpoint; wrap both ends of a flow to fault both
// directions with independent streams. Filters give tests surgical
// control (e.g. "drop exactly the first discovery response").
//
// poll_fd() composes readiness: a nested epoll set, built on the first
// call, over the inner transport's fd and an eventfd that is readable
// while a duplicated or reorder-held datagram waits in the decorator, so
// one left behind by a receive is never stranded. A held datagram is
// released by the first receive that finds the inner transport dry, and
// recv_batch() runs the scalar pipeline until it is full or dry, so a
// short batch leaves nothing behind.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "io/batch.hpp"
#include "net/fd_util.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"
#include "util/rand.hpp"

namespace bertha {

class FaultInjectingTransport final : public Transport,
                                      public BatchTransport {
 public:
  struct Options {
    double drop = 0.0;       // per-datagram drop probability
    double duplicate = 0.0;  // per-datagram duplication probability
    double reorder = 0.0;    // probability a datagram is held past the next
    double delay = 0.0;      // probability a sent datagram is delayed
    Duration delay_min = ms(1);
    Duration delay_max = ms(5);
    uint64_t seed = 1;
  };

  // Returns true to drop the datagram. Called with the remote addr (dst
  // for sends, src for receives) and the raw payload.
  using Filter = std::function<bool(const Addr&, BytesView)>;

  struct Counters {
    uint64_t sent = 0;
    uint64_t tx_dropped = 0;
    uint64_t tx_duplicated = 0;
    uint64_t tx_reordered = 0;
    uint64_t tx_delayed = 0;
    uint64_t received = 0;
    uint64_t rx_dropped = 0;
    uint64_t rx_duplicated = 0;
    uint64_t rx_reordered = 0;
  };

  FaultInjectingTransport(TransportPtr inner, Options opts);
  ~FaultInjectingTransport() override;

  Result<void> send_to(const Addr& dst, BytesView payload) override;
  Result<Packet> recv(Deadline deadline = Deadline::never()) override;
  const Addr& local_addr() const override { return inner_->local_addr(); }
  void close() override;

  // Batch passthrough: faults apply per-datagram inside the batch, with
  // the same seeded decision stream as the unbatched path.
  Result<size_t> send_batch(std::span<const Datagram> batch) override;
  Result<size_t> recv_batch(std::span<Datagram> out,
                            Deadline deadline = Deadline::never()) override;

  // The composite readiness fd described above; -1 if the inner
  // transport has no fd (or the epoll set cannot be built).
  int poll_fd() const override;

  // One-way partitions, togglable at runtime. partition(true, false)
  // blackholes everything this endpoint sends while still receiving;
  // partition(false, false) heals.
  void partition(bool tx, bool rx);

  void set_send_filter(Filter f);
  void set_recv_filter(Filter f);

  Counters counters() const;
  Transport& inner() { return *inner_; }

 private:
  struct Delayed {
    TimePoint due;
    Addr dst;
    Bytes payload;
  };

  // Re-syncs rx_ready_ with rx_pending_/rx_held_ when a receive returns.
  struct RxReadySync {
    FaultInjectingTransport& t;
    ~RxReadySync();
  };

  void timer_loop();
  void ensure_timer_locked();

  TransportPtr inner_;
  Options opts_;

  mutable std::mutex mu_;
  Rng rng_;  // guarded by mu_
  bool tx_partitioned_ = false;
  bool rx_partitioned_ = false;
  Filter send_filter_;
  Filter recv_filter_;
  std::optional<std::pair<Addr, Bytes>> tx_held_;  // reorder hold slot
  std::optional<Packet> rx_held_;
  std::deque<Packet> rx_pending_;  // duplicates / released reorders
  Counters n_;
  // poll_fd() state, built lazily; rx_ready_ is readable exactly while
  // rx_pending_ or rx_held_ holds a datagram.
  mutable Fd rx_poll_;
  mutable Fd rx_ready_;

  // Delayed sends, flushed by a lazily started timer thread.
  std::vector<Delayed> delay_q_;  // min-heap by due time
  std::condition_variable delay_cv_;
  std::thread timer_;
  bool timer_started_ = false;
  bool closing_ = false;
};

// TransportFactory wrapper: every bound transport is fault-injected with
// the same knobs (seeds decorrelated per bind so endpoints fault
// independently).
class FaultInjectingFactory final : public TransportFactory {
 public:
  FaultInjectingFactory(std::shared_ptr<TransportFactory> inner,
                        FaultInjectingTransport::Options opts)
      : inner_(std::move(inner)), opts_(opts) {}

  Result<TransportPtr> bind(const Addr& addr) override;

  // Filters installed on every *subsequently* bound transport. Capture a
  // shared atomic flag to arm/disarm mid-test without re-installing.
  void set_send_filter(FaultInjectingTransport::Filter f);
  void set_recv_filter(FaultInjectingTransport::Filter f);

 private:
  std::shared_ptr<TransportFactory> inner_;
  FaultInjectingTransport::Options opts_;
  std::mutex mu_;
  uint64_t binds_ = 0;
  FaultInjectingTransport::Filter send_filter_;
  FaultInjectingTransport::Filter recv_filter_;
};

}  // namespace bertha
