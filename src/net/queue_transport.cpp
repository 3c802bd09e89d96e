#include "net/queue_transport.hpp"

#include <algorithm>

#include "io/batch.hpp"

namespace bertha {

namespace {

class QueueTransport final : public Transport, public BatchTransport {
 public:
  QueueTransport(std::shared_ptr<QueueNetwork> net,
                 std::shared_ptr<PacketQueue> q, Addr local)
      : net_(std::move(net)), q_(std::move(q)), local_(std::move(local)) {}

  ~QueueTransport() override { close(); }

  Result<void> send_to(const Addr& dst, BytesView payload) override {
    if (q_->closed()) return err(Errc::cancelled, "transport closed");
    return net_->send(local_, dst, payload);
  }

  Result<Packet> recv(Deadline deadline) override { return q_->pop(deadline); }

  Result<size_t> send_batch(std::span<const Datagram> batch) override {
    if (q_->closed()) return err(Errc::cancelled, "transport closed");
    for (const Datagram& d : batch)
      BERTHA_TRY(net_->send(local_, d.dst, d.payload.view()));
    return batch.size();
  }

  // One lock acquisition drains up to a chunk of queued packets.
  Result<size_t> recv_batch(std::span<Datagram> out,
                            Deadline deadline) override {
    if (out.empty()) return size_t(0);
    Packet chunk[kBatchChunk];
    size_t max = std::min(out.size(), kBatchChunk);
    BERTHA_TRY_ASSIGN(n, q_->pop_batch(chunk, max, deadline));
    for (size_t i = 0; i < n; i++) {
      out[i].src = std::move(chunk[i].src);
      out[i].payload.assign(chunk[i].payload);
    }
    return n;
  }

  const Addr& local_addr() const override { return local_; }

  void close() override {
    if (!q_->closed()) {
      q_->close();
      net_->unbind(local_);
    }
  }

  int poll_fd() const override { return q_->readiness_fd(); }

 private:
  static constexpr size_t kBatchChunk = 64;

  std::shared_ptr<QueueNetwork> net_;
  std::shared_ptr<PacketQueue> q_;
  Addr local_;
};

}  // namespace

Result<TransportPtr> QueueNetwork::bind_queue(Addr addr, size_t depth) {
  std::lock_guard<std::mutex> lk(table_mu_);
  if (addr.port == 0) {
    // ~25k ephemeral ports per host. A full range must fail, not spin:
    // the connection-scale tests bind tens of thousands of clients and
    // an exhausted host used to hang here scanning forever.
    for (uint32_t tried = 0;; tried++) {
      if (tried > 65535u - 40000u)
        return err(Errc::resource_exhausted,
                   "ephemeral ports exhausted on " + addr.host);
      addr.port = next_ephemeral_++;
      if (next_ephemeral_ == 0) next_ephemeral_ = 40000;
      if (!endpoints_.count(addr)) break;
    }
  } else if (endpoints_.count(addr)) {
    return err(Errc::already_exists, "addr in use: " + addr.to_string());
  }
  auto q = std::make_shared<PacketQueue>(depth);
  endpoints_[addr] = q;
  return TransportPtr(new QueueTransport(shared_from_this(), std::move(q),
                                         std::move(addr)));
}

void QueueNetwork::deliver(const Addr& to, Packet pkt) {
  std::shared_ptr<PacketQueue> q;
  {
    std::lock_guard<std::mutex> lk(table_mu_);
    auto it = endpoints_.find(to);
    if (it != endpoints_.end()) q = it->second;
  }
  if (!q) {
    dropped_++;  // no endpoint: the datagram vanishes
    return;
  }
  delivered_++;
  (void)q->push(std::move(pkt));
}

void QueueNetwork::unbind(const Addr& addr) {
  std::lock_guard<std::mutex> lk(table_mu_);
  endpoints_.erase(addr);
}

void QueueNetwork::close_all() {
  std::lock_guard<std::mutex> lk(table_mu_);
  for (auto& [addr, q] : endpoints_) q->close();
}

}  // namespace bertha
