// Transport: the lowest layer of the stack — an unreliable, unordered
// datagram endpoint, deliberately minimal (the paper's "best-effort,
// end-to-end packet delivery"). Everything above it — reliability,
// ordering, sharding, multicast — is a Chunnel.
#pragma once

#include <memory>

#include "net/addr.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/result.hpp"

namespace bertha {

struct Packet {
  Addr src;
  Bytes payload;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Fire-and-forget datagram send. May drop silently (like UDP); errors
  // are returned only for local problems (bad addr, closed endpoint).
  virtual Result<void> send_to(const Addr& dst, BytesView payload) = 0;

  // Block until a datagram arrives, the deadline expires (timed_out), or
  // the endpoint is closed (cancelled). Safe to call concurrently with
  // send_to and close from other threads.
  virtual Result<Packet> recv(Deadline deadline = Deadline::never()) = 0;

  virtual const Addr& local_addr() const = 0;

  // Idempotent; wakes blocked recv() calls with cancelled.
  virtual void close() = 0;

  // OS-pollable readiness fd (readable when a datagram is waiting), or
  // -1 for transports without one. The io Reactor multiplexes every
  // transport on one epoll set and refuses those without an fd. Sockets
  // return their own fd; queue-backed transports (also readable once
  // closed) and the fault decorator build theirs on the first call.
  virtual int poll_fd() const { return -1; }
};

using TransportPtr = std::unique_ptr<Transport>;

// Creates a bound transport of the same family as `bind_addr`.
// For udp/uds, port 0 / empty-suffix names are fleshed out by the OS.
// A TransportFactory is how the runtime and chunnels (e.g. the local
// fast-path chunnel dialing a UDS address) obtain endpoints without
// depending on concrete transport types.
class TransportFactory {
 public:
  virtual ~TransportFactory() = default;
  virtual Result<TransportPtr> bind(const Addr& bind_addr) = 0;
};

}  // namespace bertha
