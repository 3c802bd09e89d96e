// Reactor: epoll-based rx multiplexer. Many endpoints share a small
// worker pool instead of one blocking thread per socket — the listener's
// demux loops, the shard dispatcher, and anything else that consumes
// whole transports register a handler and get called with batches.
//
// Every registered transport joins one epoll set through its poll_fd()
// with EPOLLONESHOT, so exactly one worker drains a given endpoint at a
// time and re-arms it when the transport runs dry. Sockets bring their
// own fd; mem/sim endpoints and the fault decorator build a readiness
// fd on demand (net/queue_transport.hpp, net/fault.hpp). A transport
// without one is refused.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/batch.hpp"
#include "io/timer_wheel.hpp"
#include "net/fd_util.hpp"
#include "trace/metrics.hpp"

namespace bertha {

class Reactor {
 public:
  struct Options {
    int workers = 2;         // epoll worker threads
    size_t batch_size = 32;  // rx slots per registration / handler call
    MetricsPtr metrics;      // optional io.reactor.* counters
    Duration wheel_tick = ms(10);  // timer wheel granularity (wheel())
    size_t wheel_slots = 512;      // timer wheel slot count
  };

  // Called with a borrowed batch: the datagrams (and their pooled
  // payloads) are reused for the next receive, so handlers copy what
  // they keep. At most one invocation per registration runs at a time.
  using Handler = std::function<void(std::span<Datagram>)>;

  static Result<std::shared_ptr<Reactor>> create();  // default Options
  static Result<std::shared_ptr<Reactor>> create(Options opts);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers a transport. The reactor shares ownership but never closes
  // it; closing the transport elsewhere retires the registration (the
  // handler stops being called; remove() still releases it). Handlers
  // must not call back into remove()/shutdown() for their own
  // registration. Fails with invalid_argument if poll_fd() is -1, and
  // with the epoll_ctl error if epoll refuses the fd.
  Result<uint64_t> add(std::shared_ptr<Transport> transport, Handler handler);

  // Unregisters and blocks until the handler is not running and will not
  // run again. No-op for unknown ids.
  void remove(uint64_t id);

  // Retires every registration and joins all threads. Idempotent; called
  // by the destructor. Also stops the timer wheel, if one was created.
  void shutdown();

  // The reactor's timer wheel, created lazily on first call and driven
  // by its own tick thread for the reactor's lifetime (stopped in
  // shutdown()). This is where per-connection keepalive/lease deadlines
  // live, so 100k idle connections cost one tick thread, not 100k.
  TimerWheelPtr wheel();

  struct Stats {
    uint64_t batches = 0;    // handler invocations
    uint64_t datagrams = 0;  // datagrams delivered to handlers
    uint64_t polls = 0;      // epoll_wait returns
  };
  Stats stats() const;

 private:
  struct Reg {
    uint64_t id = 0;
    std::shared_ptr<Transport> transport;
    Handler handler;
    int fd = -1;  // transport->poll_fd()
    std::vector<Datagram> buf;
    std::atomic<bool> dead{false};    // no further handler calls wanted
    bool running = false;             // guarded by reactor mu_
  };
  using RegPtr = std::shared_ptr<Reg>;

  Reactor(Options opts, Fd epoll, Fd wake);
  void worker_loop();
  // Drains until the transport runs dry; false when the registration
  // should be retired (transport closed or marked dead).
  bool drain(const RegPtr& reg);

  Options opts_;
  Fd epoll_;
  Fd wake_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // signals handler-not-running
  bool stopping_ = false;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, RegPtr> regs_;
  Stats stats_;  // guarded by mu_
  std::vector<std::thread> workers_;

  std::mutex wheel_mu_;
  TimerWheelPtr wheel_;  // guarded by wheel_mu_
};

using ReactorPtr = std::shared_ptr<Reactor>;

}  // namespace bertha
