// Sharding chunnel (paper Listings 4/5, evaluated in Fig 5).
//
// A server exposes one canonical address; requests are steered to one of
// several backend shards by hashing a fixed field of the request
// payload (the analogue of Listing 4's
//   shard_fn = |p| hash(p.payload[10..14]) % 3
// — declarative field/modulo so an XDP program or a switch could run it).
//
// Three implementations, matching the paper's evaluation scenarios:
//
//   shard/client-push  the client computes the shard and sends directly
//                      to it: no steering hop at all, best scalability
//                      ("a case where the presence of a fallback
//                      implementation improves performance, even in the
//                      absence of offloads"),
//   shard/xdp          an accelerated server-side dispatcher that steers
//                      on the raw field bytes without parsing the
//                      request (our stand-in for the 200-line XDP
//                      program; see DESIGN.md §1.4),
//   shard/fallback     the server's in-application dispatcher: fully
//                      parses each request before steering, single
//                      threaded — correct but slow.
//
// Data-plane format. Requests carry a small shard header so the backend
// can reply directly to the client (direct server return — the role the
// real XDP redirect plays by preserving the source address):
//   "S1" | varint reply_uri_len | reply_uri | app payload
// Replies are the raw app payload sent to reply_uri.
#pragma once

#include <atomic>

#include "chunnels/common.hpp"
#include "core/chunnel.hpp"
#include "core/discovery.hpp"
#include "io/reactor.hpp"
#include "sim/simswitch.hpp"

namespace bertha {

// DAG-node args understood by all implementations:
//   shards       comma-separated backend addresses (required)
//   field_offset byte offset of the shard key field in the app payload
//   field_len    field length in bytes (default 4)
struct ShardArgs {
  std::vector<Addr> shards;
  uint64_t field_offset = 0;
  uint64_t field_len = 4;

  static Result<ShardArgs> from(const ChunnelArgs& args);
  // The steering function every implementation agrees on.
  size_t pick(BytesView app_payload) const;
};

// The raw consistent-hash step shared by every steering path —
// ShardArgs::pick above and the discovery control plane's PartitionMap
// (src/control/), which partitions the catalogue by chunnel type with
// the same function so a future in-network steer stays byte-compatible.
size_t shard_pick(BytesView key, size_t n);

// Request framing helpers (exposed for ShardWorker and tests).
Bytes shard_frame(const Addr& reply_to, BytesView app_payload);
struct ShardRequest {
  Addr reply_to;
  BytesView payload;  // view into the input
};
Result<ShardRequest> parse_shard_frame(BytesView datagram);

class ShardClientPushChunnel final : public ChunnelImpl {
 public:
  ShardClientPushChunnel();
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override;

 private:
  ImplInfo info_;
};

// The two server-side dispatchers below: on_listen binds a dispatcher
// transport, advertises it to clients as `addr_arg`, and steers what
// arrives there with a process_reactor() handler until teardown().
class ShardDispatcherChunnel : public ChunnelImpl {
 public:
  const ImplInfo& info() const override { return info_; }
  Result<void> on_listen(ListenContext& ctx) override;
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override;
  void teardown() override;

 protected:
  explicit ShardDispatcherChunnel(std::string addr_arg)
      : addr_arg_(std::move(addr_arg)) {}
  // The handler steering one listener's dispatcher transport.
  virtual Reactor::Handler steerer(std::shared_ptr<Transport> transport,
                                   ShardArgs args) = 0;
  ImplInfo info_;

 private:
  std::string addr_arg_;
  std::mutex mu_;
  std::vector<std::pair<std::shared_ptr<Transport>, uint64_t>> regs_;
};

class ShardXdpChunnel final : public ShardDispatcherChunnel {
 public:
  ShardXdpChunnel();
  ~ShardXdpChunnel() override { teardown(); }
  uint64_t packets_steered() const {
    return steered_.load(std::memory_order_relaxed);
  }

 private:
  Reactor::Handler steerer(std::shared_ptr<Transport> transport,
                           ShardArgs args) override;
  std::atomic<uint64_t> steered_{0};
};

// In-network sharding — the paper's Fig-1 "P4 Sharding Implementation":
// the programmable switch steers each request to its shard in transit,
// with no steering hop and no server CPU. The factory below is
// instantiation code only (factory_only); availability comes from an
// installed+advertised switch program (install_switch_shard_offload).
class ShardSwitchChunnel final : public ChunnelImpl {
 public:
  ShardSwitchChunnel();
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext& ctx) override;

 private:
  ImplInfo info_;
};

// Installs the sharding match-action program on `sw` at
// sim://<vip>:<port> (consuming a match-action slot) and advertises it
// to discovery for application instance `instance`. All shard addresses
// must be SimNet addresses. Returns the VIP.
Result<Addr> install_switch_shard_offload(SimSwitch& sw,
                                          DiscoveryClient& discovery,
                                          const std::string& vip,
                                          uint16_t port, const ShardArgs& args,
                                          const std::string& instance);

class ShardFallbackChunnel final : public ShardDispatcherChunnel {
 public:
  ShardFallbackChunnel();
  ~ShardFallbackChunnel() override { teardown(); }

 private:
  Reactor::Handler steerer(std::shared_ptr<Transport> transport,
                           ShardArgs args) override;
};

// The backend side: one ShardWorker per shard, owned by the server
// application (Listing 4 passes the shard list in). recv() yields
// requests with src set to the client's reply address; send() replies
// directly to it (direct server return).
class ShardWorker {
 public:
  static Result<std::unique_ptr<ShardWorker>> bind(TransportFactory& factory,
                                                   const Addr& addr);
  ~ShardWorker();

  Result<Msg> recv(Deadline deadline = Deadline::never());
  Result<void> reply(const Addr& to, BytesView payload);
  const Addr& addr() const { return addr_; }
  void close();

 private:
  explicit ShardWorker(TransportPtr t)
      : transport_(std::move(t)), addr_(transport_->local_addr()) {}
  TransportPtr transport_;
  Addr addr_;
};

}  // namespace bertha
