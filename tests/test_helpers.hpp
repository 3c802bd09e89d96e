// Shared fixtures for integration-style tests: runtimes wired to an
// in-memory network (fast, deterministic) or to real OS sockets.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "chunnels/builtin.hpp"
#include "chunnels/reliable.hpp"
#include "core/endpoint.hpp"
#include "net/factory.hpp"
#include "serialize/codec.hpp"

namespace bertha::testing_support {

struct TestWorld {
  std::shared_ptr<MemNetwork> mem;
  std::shared_ptr<SimNet> sim;
  std::shared_ptr<DiscoveryState> discovery;

  static TestWorld make(uint64_t seed = 1) {
    TestWorld w;
    MemNetwork::Config mcfg;
    mcfg.seed = seed;
    w.mem = MemNetwork::create(mcfg);
    SimNet::Config scfg;
    scfg.seed = seed;
    scfg.default_latency = us(200);
    w.sim = SimNet::create(scfg);
    w.discovery = std::make_shared<DiscoveryState>();
    return w;
  }

  // A runtime on host `host_id`, sharing this world's networks and
  // discovery. Registers the builtin chunnels unless told otherwise.
  std::shared_ptr<Runtime> runtime(const std::string& host_id,
                                   bool builtins = true,
                                   PolicyPtr policy = nullptr) {
    RuntimeConfig cfg;
    cfg.host_id = host_id;
    cfg.transports =
        std::make_shared<DefaultTransportFactory>(mem, sim, host_id);
    cfg.discovery = discovery;
    cfg.policy = std::move(policy);
    // Lossy-network tests drive establishment through real packet loss;
    // generous retries keep the handshake's failure probability
    // negligible (p_loss_per_attempt^11) without masking real bugs.
    cfg.handshake_timeout = ms(300);
    cfg.handshake_retries = 10;
    auto rt = Runtime::create(std::move(cfg));
    EXPECT_TRUE(rt.ok()) << rt.error().to_string();
    auto runtime = rt.value();
    if (builtins) {
      auto reg = register_builtin_chunnels(*runtime);
      EXPECT_TRUE(reg.ok()) << reg.error().to_string();
    }
    return runtime;
  }
};

// Minimal base connection over a transport with a fixed peer: the
// bottom of hand-wrapped chunnel stacks.
class FixedPeerConnection final : public Connection {
 public:
  FixedPeerConnection(TransportPtr t, Addr peer)
      : t_(std::move(t)), peer_(std::move(peer)), local_(t_->local_addr()) {}
  Result<void> send(Msg m) override { return t_->send_to(peer_, m.payload); }
  Result<Msg> recv(Deadline d) override {
    BERTHA_TRY_ASSIGN(pkt, t_->recv(d));
    Msg m;
    m.src = std::move(pkt.src);
    m.dst = local_;
    m.payload = std::move(pkt.payload);
    return m;
  }
  const Addr& local_addr() const override { return local_; }
  const Addr& peer_addr() const override { return peer_; }
  void close() override { t_->close(); }

 private:
  TransportPtr t_;
  Addr peer_;
  Addr local_;
};

// One reliable/arq connection whose peer is played by the test: `raw`
// sends hand-built ARQ frames (arq_* below) and sees what `arq` sends.
struct RawArqPair {
  std::shared_ptr<MemNetwork> net;
  ConnPtr raw;
  ConnPtr arq;
};

inline RawArqPair make_raw_arq_pair(ReliableOptions opts) {
  RawArqPair p;
  p.net = MemNetwork::create(MemNetwork::Config{});
  auto ta = p.net->bind(Addr::mem("raw", 1)).value();
  auto tb = p.net->bind(Addr::mem("arq", 1)).value();
  Addr addr_a = ta->local_addr(), addr_b = tb->local_addr();
  p.raw = std::make_shared<FixedPeerConnection>(std::move(ta), addr_b);
  ReliableChunnel impl(opts);
  WrapContext ctx;
  ConnPtr base = std::make_shared<FixedPeerConnection>(std::move(tb), addr_a);
  p.arq = impl.wrap(std::move(base), ctx).value();
  return p;
}

// reliable/arq wire frames: kind 1 = data, 2 = cumulative ack (next
// expected sequence number), 3 = data carrying an ack.
inline Bytes arq_data(uint64_t seq, std::string_view payload) {
  Writer w;
  w.put_u8(1);
  w.put_varint(seq);
  w.put_raw(to_bytes(payload));
  return std::move(w).take();
}

inline Bytes arq_ack(uint64_t next_expected) {
  Writer w;
  w.put_u8(2);
  w.put_varint(next_expected);
  return std::move(w).take();
}

inline Bytes arq_data_ack(uint64_t seq, uint64_t next_expected,
                          std::string_view payload) {
  Writer w;
  w.put_u8(3);
  w.put_varint(seq);
  w.put_varint(next_expected);
  w.put_raw(to_bytes(payload));
  return std::move(w).take();
}

// The ack a frame carries (kinds 2 and 3), if any.
inline std::optional<uint64_t> arq_ack_of(BytesView frame) {
  Reader r(frame);
  auto kind = r.get_u8();
  auto first = r.get_varint();
  if (!kind.ok() || !first.ok()) return std::nullopt;
  if (kind.value() == 2) return first.value();
  if (kind.value() != 3) return std::nullopt;
  auto ack = r.get_varint();
  if (!ack.ok()) return std::nullopt;
  return ack.value();
}

// The sequence number of a data frame (kinds 1 and 3), if any.
inline std::optional<uint64_t> arq_seq_of(BytesView frame) {
  Reader r(frame);
  auto kind = r.get_u8();
  auto seq = r.get_varint();
  if (!kind.ok() || !seq.ok() || (kind.value() != 1 && kind.value() != 3))
    return std::nullopt;
  return seq.value();
}

}  // namespace bertha::testing_support
