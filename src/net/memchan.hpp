// In-memory datagram network for tests: zero-latency, lossless unless a
// drop rate is configured, fully deterministic with a seed.
//
// A MemNetwork is a namespace of mem://host:port endpoints. Delivery is
// a queue push in the sender's thread, so message interleavings are
// driven entirely by the calling threads. Endpoints are QueueTransports
// (net/queue_transport.hpp): their poll_fd() is a readiness eventfd,
// opened only for endpoints that join a reactor.
#pragma once

#include <memory>
#include <mutex>

#include "net/queue_transport.hpp"
#include "util/rand.hpp"

namespace bertha {

class MemNetwork : public QueueNetwork {
 public:
  struct Config {
    double drop_rate = 0.0;  // fraction of datagrams silently dropped
    uint64_t seed = 1;       // for the drop decision
    size_t queue_depth = 4096;
  };

  static std::shared_ptr<MemNetwork> create(Config cfg) {
    return std::shared_ptr<MemNetwork>(new MemNetwork(cfg));
  }
  static std::shared_ptr<MemNetwork> create() { return create(Config{}); }

  // Binds mem://<host>:<port>. Port 0 picks a fresh ephemeral port on
  // that host name. Fails with already_exists if taken.
  Result<TransportPtr> bind(const Addr& addr);

 private:
  explicit MemNetwork(Config cfg) : cfg_(cfg), rng_(cfg.seed) {}

  Result<void> send(const Addr& from, const Addr& to,
                    BytesView payload) override;

  Config cfg_;
  std::mutex mu_;
  Rng rng_;  // guarded by mu_
};

// Factory over a MemNetwork (satisfies TransportFactory for the runtime).
class MemTransportFactory final : public TransportFactory {
 public:
  explicit MemTransportFactory(std::shared_ptr<MemNetwork> net)
      : net_(std::move(net)) {}
  Result<TransportPtr> bind(const Addr& addr) override {
    return net_->bind(addr);
  }

 private:
  std::shared_ptr<MemNetwork> net_;
};

}  // namespace bertha
