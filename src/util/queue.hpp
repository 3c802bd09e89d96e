// Blocking multi-producer multi-consumer queue with deadlines and close().
//
// This is the backbone of every in-process transport and demux layer:
// closing a queue wakes all blocked consumers with Errc::cancelled, which
// is how connection close propagates through a chunnel stack.
#pragma once

#include <sys/eventfd.h>
#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/clock.hpp"
#include "util/result.hpp"

namespace bertha {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = 0) : capacity_(capacity) {}
  ~BlockingQueue() {
    if (ready_fd_ >= 0) ::close(ready_fd_);
  }

  // Enqueue. Fails with resource_exhausted if a capacity is set and the
  // queue is full (bounded queues drop rather than block: transports are
  // datagram-like), or cancelled if closed.
  Result<void> push(T item) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return err(Errc::cancelled, "queue closed");
      if (capacity_ != 0 && q_.size() >= capacity_)
        return err(Errc::resource_exhausted, "queue full");
      q_.push_back(std::move(item));
      if (q_.size() == 1) signal_ready();
    }
    cv_.notify_one();
    return ok();
  }

  // Dequeue, blocking until an item arrives, the deadline expires, or the
  // queue is closed (and drained).
  Result<T> pop(Deadline deadline = Deadline::never()) {
    T item;
    BERTHA_TRY(pop_batch(&item, 1, deadline));
    return item;
  }

  // Bulk dequeue under one lock acquisition: blocks like pop() for the
  // first item, then moves out up to `max` already-queued items. This is
  // the batched-receive path for queue-backed transports.
  Result<size_t> pop_batch(T* out, size_t max,
                           Deadline deadline = Deadline::never()) {
    if (max == 0) return size_t(0);
    std::unique_lock<std::mutex> lk(mu_);
    while (q_.empty()) {
      if (closed_) return err(Errc::cancelled, "queue closed");
      if (deadline.is_never()) {
        cv_.wait(lk);
      } else {
        if (cv_.wait_until(lk, deadline.as_time_point()) ==
                std::cv_status::timeout &&
            q_.empty()) {
          if (closed_) return err(Errc::cancelled, "queue closed");
          return err(Errc::timed_out, "queue pop deadline expired");
        }
      }
    }
    size_t n = 0;
    while (n < max && !q_.empty()) {
      out[n++] = std::move(q_.front());
      q_.pop_front();
    }
    clear_ready_if_drained();
    return n;
  }

  // Non-blocking dequeue.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return std::nullopt;
    T item = std::move(q_.front());
    q_.pop_front();
    clear_ready_if_drained();
    return item;
  }

  // Wake all waiters; subsequent pushes fail. Items already queued are
  // still drained by pop().
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
      signal_ready();
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }

  // An eventfd that is readable exactly while the queue is non-empty or
  // closed, so an epoll set can wait on the queue. Created on the first
  // call: a queue nobody polls opens no fd and makes no extra syscall.
  // -1 if the eventfd cannot be created.
  int readiness_fd() {
    std::lock_guard<std::mutex> lk(mu_);
    if (ready_fd_ < 0)
      ready_fd_ = ::eventfd(closed_ || !q_.empty() ? 1 : 0,
                            EFD_NONBLOCK | EFD_CLOEXEC);
    return ready_fd_;
  }

 private:
  // Both run under mu_, so the fd's state never lags the queue's.
  void signal_ready() {
    uint64_t one = 1;
    if (ready_fd_ >= 0) (void)!::write(ready_fd_, &one, sizeof(one));
  }
  void clear_ready_if_drained() {
    uint64_t count;
    if (ready_fd_ >= 0 && q_.empty() && !closed_)
      (void)!::read(ready_fd_, &count, sizeof(count));
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> q_;
  size_t capacity_;
  bool closed_ = false;
  int ready_fd_ = -1;  // guarded by mu_; see readiness_fd()
};

}  // namespace bertha
