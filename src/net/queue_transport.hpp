// QueueTransport: the one transport of the in-process networks
// (MemNetwork, SimNet). Each bound endpoint owns a PacketQueue; receiving
// pops it, and sending hands the datagram to the network, which pushes it
// into the destination's queue (mem: on the sender's thread; sim: on its
// timing thread).
//
// poll_fd() is the queue's readiness eventfd (readable exactly while the
// queue is non-empty or closed), so these endpoints join the io Reactor's
// epoll set like sockets do. The fd is opened on the first poll_fd()
// call: an endpoint that never joins a reactor opens no fd and makes no
// extra syscall per datagram.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "net/transport.hpp"
#include "util/queue.hpp"

namespace bertha {

using PacketQueue = BlockingQueue<Packet>;

// The endpoint table and counters of an in-process network; subclasses
// decide how a send is routed.
class QueueNetwork : public std::enable_shared_from_this<QueueNetwork> {
 public:
  virtual ~QueueNetwork() = default;

  // Routes one datagram from the bound endpoint `from` toward `to`.
  virtual Result<void> send(const Addr& from, const Addr& to,
                            BytesView payload) = 0;
  // Releases `addr` after its transport closed.
  void unbind(const Addr& addr);

  // Datagrams pushed into an endpoint queue / lost on the way (loss,
  // rejected by a program, no endpoint bound at the destination).
  uint64_t delivered() const { return delivered_.load(); }
  uint64_t dropped() const { return dropped_.load(); }

 protected:
  // Binds `addr` to a fresh queue holding up to `depth` packets. Port 0
  // picks an unused ephemeral port on that host. Fails with
  // already_exists if taken.
  Result<TransportPtr> bind_queue(Addr addr, size_t depth);
  // Pushes `pkt` into the queue bound at `to`; a full or closed queue
  // drops it silently, like the real network.
  void deliver(const Addr& to, Packet pkt);
  // Closes every bound queue.
  void close_all();

  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};

 private:
  mutable std::mutex table_mu_;
  uint16_t next_ephemeral_ = 40000;  // guarded by table_mu_
  std::unordered_map<Addr, std::shared_ptr<PacketQueue>, AddrHash>
      endpoints_;  // guarded by table_mu_
};

}  // namespace bertha
