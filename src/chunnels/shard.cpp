#include "chunnels/shard.hpp"

#include "io/batch.hpp"
#include "serialize/codec.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace bertha {

// --- args & framing ---

Result<ShardArgs> ShardArgs::from(const ChunnelArgs& args) {
  ShardArgs out;
  BERTHA_TRY_ASSIGN(csv, args.get("shards"));
  BERTHA_TRY_ASSIGN(shards, parse_addr_list(csv));
  out.shards = std::move(shards);
  out.field_offset = args.get_u64_or("field_offset", 0);
  out.field_len = args.get_u64_or("field_len", 4);
  if (out.field_len == 0 || out.field_len > 64)
    return err(Errc::invalid_argument, "bad shard field_len");
  return out;
}

size_t shard_pick(BytesView key, size_t n) {
  if (n <= 1) return 0;
  return static_cast<size_t>(fnv1a64(key) % n);
}

size_t ShardArgs::pick(BytesView app_payload) const {
  if (shards.size() <= 1) return 0;
  if (app_payload.size() < field_offset + field_len) return 0;
  return shard_pick(app_payload.subspan(field_offset, field_len),
                    shards.size());
}

Bytes shard_frame(const Addr& reply_to, BytesView app_payload) {
  Writer w;
  w.put_u8('S');
  w.put_u8('1');
  w.put_string(reply_to.to_string());
  w.put_raw(app_payload);
  return std::move(w).take();
}

Result<ShardRequest> parse_shard_frame(BytesView datagram) {
  Reader r(datagram);
  BERTHA_TRY_ASSIGN(m0, r.get_u8());
  BERTHA_TRY_ASSIGN(m1, r.get_u8());
  if (m0 != 'S' || m1 != '1')
    return err(Errc::protocol_error, "bad shard frame magic");
  BERTHA_TRY_ASSIGN(uri, r.get_string());
  BERTHA_TRY_ASSIGN(reply_to, Addr::parse(uri));
  ShardRequest out;
  out.reply_to = std::move(reply_to);
  out.payload = r.rest();
  return out;
}

namespace {

// Cheap header-peek steering: skips the frame without copying and reads
// only the shard field — what the XDP program does.
Result<size_t> steer_fast(BytesView datagram, const ShardArgs& args) {
  Reader r(datagram);
  BERTHA_TRY_ASSIGN(m0, r.get_u8());
  BERTHA_TRY_ASSIGN(m1, r.get_u8());
  if (m0 != 'S' || m1 != '1')
    return err(Errc::protocol_error, "bad shard frame magic");
  // Skip the reply uri without materializing it.
  BERTHA_TRY_ASSIGN(len, r.get_varint());
  BERTHA_TRY_ASSIGN(skipped, r.get_raw(len));
  (void)skipped;
  return args.pick(r.rest());
}

// --- client-side connection used by all three implementations ---

class ShardClientConnection final : public Connection {
 public:
  enum class Mode { push, forward };

  ShardClientConnection(ConnPtr inner, TransportPtr transport, Mode mode,
                        ShardArgs args, Addr forward_target)
      : inner_(std::move(inner)),
        transport_(std::move(transport)),
        mode_(mode),
        args_(std::move(args)),
        forward_target_(std::move(forward_target)),
        local_(transport_->local_addr()) {}

  ~ShardClientConnection() override { close(); }

  Result<void> send(Msg m) override {
    Bytes framed = shard_frame(local_, m.payload);
    const Addr& target = mode_ == Mode::push
                             ? args_.shards[args_.pick(m.payload)]
                             : forward_target_;
    return transport_->send_to(target, framed);
  }

  Result<Msg> recv(Deadline deadline) override {
    // The negotiated control connection carries no application data on
    // the shard path (backends reply straight to this transport), but
    // server-initiated live-transition offers do arrive on it, and they
    // are only processed inside its recv. Drain it without blocking so a
    // renegotiation onto a better dispatcher (e.g. a synthesized switch
    // program) can reach an established shard connection.
    (void)inner_->recv(Deadline::after(ms(0)));
    BERTHA_TRY_ASSIGN(pkt, transport_->recv(deadline));
    Msg m;
    m.src = std::move(pkt.src);
    m.dst = local_;
    m.payload = std::move(pkt.payload);
    return m;
  }

  const Addr& local_addr() const override { return local_; }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }

  void close() override {
    transport_->close();
    inner_->close();
  }

 private:
  ConnPtr inner_;  // the negotiated control connection (kept for close)
  TransportPtr transport_;
  Mode mode_;
  ShardArgs args_;
  Addr forward_target_;
  Addr local_;
};

Result<ConnPtr> make_client_conn(ConnPtr inner, WrapContext& ctx,
                                 ShardClientConnection::Mode mode,
                                 const std::string& target_arg) {
  BERTHA_TRY_ASSIGN(args, ShardArgs::from(ctx.args));
  Addr target;
  if (mode == ShardClientConnection::Mode::forward) {
    BERTHA_TRY_ASSIGN(uri, ctx.args.get(target_arg));
    BERTHA_TRY_ASSIGN(parsed, Addr::parse(uri));
    target = std::move(parsed);
  }
  const Addr& like = mode == ShardClientConnection::Mode::forward
                         ? target
                         : args.shards.front();
  BERTHA_TRY_ASSIGN(t, ctx.transports->bind(
                           ephemeral_like(like, ctx.local_host_id)));
  return ConnPtr(std::make_shared<ShardClientConnection>(
      std::move(inner), std::move(t), mode, std::move(args),
      std::move(target)));
}

}  // namespace

// --- server-side dispatchers ---

Result<void> ShardDispatcherChunnel::on_listen(ListenContext& ctx) {
  BERTHA_TRY_ASSIGN(args, ShardArgs::from(ctx.app_args));
  BERTHA_TRY_ASSIGN(t, ctx.transports->bind(
                           ephemeral_like(ctx.listen_addr, ctx.host_id)));
  std::shared_ptr<Transport> transport(std::move(t));
  ctx.advertise(addr_arg_, transport->local_addr().to_string());
  BERTHA_TRY_ASSIGN(id, process_reactor().add(
                            transport, steerer(transport, std::move(args))));
  std::lock_guard<std::mutex> lk(mu_);
  regs_.emplace_back(std::move(transport), id);
  return ok();
}

Result<ConnPtr> ShardDispatcherChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  if (ctx.role == Role::server) return inner;
  return make_client_conn(std::move(inner), ctx,
                          ShardClientConnection::Mode::forward, addr_arg_);
}

void ShardDispatcherChunnel::teardown() {
  std::vector<std::pair<std::shared_ptr<Transport>, uint64_t>> regs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    regs.swap(regs_);
  }
  for (auto& [transport, id] : regs) {
    process_reactor().remove(id);
    transport->close();
  }
}

// --- client-push ---

ShardClientPushChunnel::ShardClientPushChunnel() {
  info_.type = "shard";
  info_.name = "shard/client-push";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::client;
  info_.priority = 5;
  // Offload synthesis (src/synth/): this stage's wire format is the
  // shard frame, recognizable and steerable by a compiled program.
  info_.props["synth.pattern"] = "shard";
}

Result<ConnPtr> ShardClientPushChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  if (ctx.role == Role::server) return inner;  // backends do the work
  return make_client_conn(std::move(inner), ctx,
                          ShardClientConnection::Mode::push, "");
}

// --- accelerated server dispatcher (XDP stand-in) ---

ShardXdpChunnel::ShardXdpChunnel() : ShardDispatcherChunnel("xdp_addr") {
  info_.type = "shard";
  info_.name = "shard/xdp";
  info_.scope = Scope::host;
  info_.endpoints = EndpointConstraint::server;
  info_.priority = 10;
  info_.props["synth.pattern"] = "shard";
}

Reactor::Handler ShardXdpChunnel::steerer(
    std::shared_ptr<Transport> transport, ShardArgs args) {
  BLOG(info, "shard/xdp") << "attach: would run `ip link set dev ... xdp obj "
                             "shard.o`; dispatcher at "
                          << transport->local_addr().to_string();

  // Batched fast path: the reactor hands over up to a batch per wakeup;
  // steer each datagram, then forward all kept ones with one send_batch
  // call (one sendmmsg on UDP). Mirrors an XDP program's per-NAPI-poll
  // batch processing far better than packet-at-a-time recv/send.
  return [this, transport, args = std::move(args)](std::span<Datagram> batch) {
    size_t kept = 0;
    for (size_t i = 0; i < batch.size(); i++) {
      auto idx = steer_fast(batch[i].payload.view(), args);
      if (!idx.ok()) continue;  // not a shard frame
      // Forward the datagram unchanged; the backend replies directly to
      // the client (reply addr travels in the frame).
      batch[i].dst = args.shards[idx.value()];
      if (kept != i) std::swap(batch[kept], batch[i]);
      kept++;
    }
    if (kept == 0) return;
    (void)send_batch(*transport, batch.first(kept));
    steered_.fetch_add(kept, std::memory_order_relaxed);
  };
}

// --- in-network (switch) sharding ---

ShardSwitchChunnel::ShardSwitchChunnel() {
  info_.type = "shard";
  info_.name = "shard/switch";
  info_.scope = Scope::rack;
  info_.endpoints = EndpointConstraint::server;
  info_.priority = 15;  // in-network beats the host XDP path
  info_.factory_only = true;  // usable only against an installed program
}

Result<ConnPtr> ShardSwitchChunnel::wrap(ConnPtr inner, WrapContext& ctx) {
  if (ctx.role == Role::server) return inner;  // the switch does the work
  return make_client_conn(std::move(inner), ctx,
                          ShardClientConnection::Mode::forward, "vip_addr");
}

Result<Addr> install_switch_shard_offload(SimSwitch& sw,
                                          DiscoveryClient& discovery,
                                          const std::string& vip,
                                          uint16_t port, const ShardArgs& args,
                                          const std::string& instance) {
  if (args.shards.empty())
    return err(Errc::invalid_argument, "switch sharding needs shards");
  for (const auto& s : args.shards)
    if (s.kind != AddrKind::sim)
      return err(Errc::invalid_argument,
                 "switch sharding requires sim shard addrs, got " +
                     s.to_string());

  // The program is exactly the dispatcher fast path: peek the shard
  // field through the frame, no payload copies.
  ShardArgs captured = args;
  auto steer = [captured](BytesView datagram) -> Result<Addr> {
    BERTHA_TRY_ASSIGN(idx, steer_fast(datagram, captured));
    return captured.shards[idx];
  };
  BERTHA_TRY_ASSIGN(vaddr, sw.install_match_action(vip, port, steer));

  ImplInfo info;
  info.type = "shard";
  info.name = "shard/switch:" + vaddr.to_string();
  info.scope = Scope::rack;
  info.endpoints = EndpointConstraint::server;
  info.priority = 15;
  info.props["vip_addr"] = vaddr.to_string();
  info.props["switch"] = sw.name();
  if (!instance.empty()) info.props["instance"] = instance;
  auto reg = discovery.register_impl(info);
  if (!reg.ok()) {
    (void)sw.remove_match_action(vip, port);
    return reg.error();
  }
  return vaddr;
}

// --- in-application fallback dispatcher ---

ShardFallbackChunnel::ShardFallbackChunnel()
    : ShardDispatcherChunnel("slowpath_addr") {
  info_.type = "shard";
  info_.name = "shard/fallback";
  info_.scope = Scope::application;
  info_.endpoints = EndpointConstraint::server;
  info_.priority = 0;
  info_.props["synth.pattern"] = "shard";
}

Reactor::Handler ShardFallbackChunnel::steerer(
    std::shared_ptr<Transport> transport, ShardArgs args) {
  return each_payload([transport, args = std::move(args)](BytesView pkt) {
    // The in-application path pays for a full parse: frame decode,
    // reply-address string parse, and a pass over the whole request body
    // (the application-level deserialization a real server would do
    // before it could consult its sharding logic).
    auto req = parse_shard_frame(pkt);
    if (!req.ok()) return;
    uint64_t body_digest = fnv1a64(req.value().payload);
    size_t idx = args.pick(req.value().payload);
    // Re-materialize the datagram (app -> socket copy) and forward.
    Bytes copy(pkt.begin(), pkt.end());
    copy[copy.size() - 1] ^= 0;  // keep the digest live
    (void)body_digest;
    (void)transport->send_to(args.shards[idx], copy);
  });
}

// --- ShardWorker ---

Result<std::unique_ptr<ShardWorker>> ShardWorker::bind(
    TransportFactory& factory, const Addr& addr) {
  BERTHA_TRY_ASSIGN(t, factory.bind(addr));
  return std::unique_ptr<ShardWorker>(new ShardWorker(std::move(t)));
}

ShardWorker::~ShardWorker() { close(); }

Result<Msg> ShardWorker::recv(Deadline deadline) {
  for (;;) {
    BERTHA_TRY_ASSIGN(pkt, transport_->recv(deadline));
    auto req = parse_shard_frame(pkt.payload);
    if (!req.ok()) continue;  // stray datagram
    Msg m;
    m.src = req.value().reply_to;
    m.dst = addr_;
    m.payload.assign(req.value().payload.begin(), req.value().payload.end());
    return m;
  }
}

Result<void> ShardWorker::reply(const Addr& to, BytesView payload) {
  return transport_->send_to(to, payload);
}

void ShardWorker::close() { transport_->close(); }

}  // namespace bertha
