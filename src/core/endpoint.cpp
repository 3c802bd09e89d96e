#include "core/endpoint.hpp"

#include <atomic>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/renegotiation.hpp"
#include "core/wire.hpp"
#include "io/batch.hpp"
#include "io/timer_wheel.hpp"
#include "util/log.hpp"
#include "util/queue.hpp"
#include "util/sharded_map.hpp"

namespace bertha {

namespace {

struct Peer {
  Addr addr;
  uint64_t token;
};

}  // namespace

// ----------------------------------------------------------------------
// Client-side base: a *group* of per-epoch channels. Each channel is a
// (transport, peers) binding demultiplexed by token; a live transition
// stages a second channel for the new epoch on the same group, frames
// are routed across channels by token, and shared transports are
// refcounted so the old epoch keeps draining over UDP while the new one
// rebases onto a unix socket.
// ----------------------------------------------------------------------

struct RoutedFrame {
  MsgKind kind;
  uint64_t token = 0;
  Bytes payload;
  Addr src;
};

class ClientChannel;

class ClientChannelGroup
    : public std::enable_shared_from_this<ClientChannelGroup> {
 public:
  // A transport shared by the group's channels. `pull_mu` serializes
  // recv: at most one channel pulls a transport at a time and routes
  // frames to their owners, so no channel can miss a frame while blocked
  // inside the kernel.
  struct Port {
    std::shared_ptr<Transport> transport;
    std::shared_ptr<std::mutex> pull_mu = std::make_shared<std::mutex>();
    int users = 0;  // guarded by group mu_
  };
  using PortPtr = std::shared_ptr<Port>;

  using TransitionHandler = std::function<void(
      const TransitionMsg&, const std::shared_ptr<ClientChannel>&)>;
  using CancelHandler = std::function<void(
      const TransitionCancelMsg&, const std::shared_ptr<ClientChannel>&)>;

  static PortPtr make_port(std::shared_ptr<Transport> t) {
    auto p = std::make_shared<Port>();
    p->transport = std::move(t);
    return p;
  }

  std::shared_ptr<ClientChannel> add_channel(PortPtr port,
                                             std::vector<Peer> peers);

  void port_add_user(const PortPtr& p) {
    std::lock_guard<std::mutex> lk(mu_);
    p->users++;
  }
  void port_drop_user(const PortPtr& p) {
    bool close;
    {
      std::lock_guard<std::mutex> lk(mu_);
      close = --p->users <= 0;
    }
    if (close) p->transport->close();
  }

  // Hand a frame to the channel owning its token. Unknown tokens are
  // dropped (stragglers for an epoch that already finished).
  void route(RoutedFrame f);

  void channel_gone(const std::vector<uint64_t>& tokens) {
    for (uint64_t t : tokens) by_token_.erase(t);
  }

  // Drops tokens whose channel died without a clean close (the weak_ptr
  // expired while the token was still registered). Cheap enough to run
  // from a periodic wheel timer; route() also self-heals the entry it
  // trips over, so this only catches tokens no frame ever hits again.
  size_t sweep_dead_tokens() {
    return by_token_.erase_if(
        [](uint64_t, const std::weak_ptr<ClientChannel>& w) {
          return w.expired();
        });
  }

  size_t tokens_live() const { return by_token_.size(); }

  // Folds dead-token sweeping into the timer wheel: a channel that dies
  // without a clean close leaves an expired weak_ptr in the routing
  // table; route() self-heals entries it trips over and this periodic
  // sweep catches tokens no frame ever hits again, so the table stays
  // bounded under churn. The group's destructor cancels the entry.
  void arm_sweep(const TimerWheelPtr& wheel) {
    std::weak_ptr<ClientChannelGroup> wg = weak_from_this();
    sweep_wheel_ = wheel;
    sweep_timer_ = wheel->schedule_periodic(seconds(30), [wg] {
      if (auto g = wg.lock()) g->sweep_dead_tokens();
    });
  }
  ~ClientChannelGroup() {
    if (auto w = sweep_wheel_.lock()) (void)w->cancel(sweep_timer_);
  }

  void set_transition_handler(TransitionHandler h) {
    std::lock_guard<std::mutex> lk(mu_);
    handler_ = std::move(h);
  }
  void set_cancel_handler(CancelHandler h) {
    std::lock_guard<std::mutex> lk(mu_);
    cancel_handler_ = std::move(h);
  }
  void on_transition(const TransitionMsg& msg,
                     const std::shared_ptr<ClientChannel>& via);
  void on_transition_cancel(const TransitionCancelMsg& msg,
                            const std::shared_ptr<ClientChannel>& via);

 private:
  friend class ClientChannel;
  std::mutex mu_;  // ports and handlers; by_token_ stripes its own locks
  ShardedMap<std::weak_ptr<ClientChannel>> by_token_{8};
  TransitionHandler handler_;
  CancelHandler cancel_handler_;
  std::weak_ptr<TimerWheel> sweep_wheel_;
  uint64_t sweep_timer_ = 0;
};

class ClientChannel final : public Connection,
                            public std::enable_shared_from_this<ClientChannel> {
 public:
  ClientChannel(std::shared_ptr<ClientChannelGroup> group,
                ClientChannelGroup::PortPtr port, std::vector<Peer> peers)
      : group_(std::move(group)),
        port_(std::move(port)),
        peers_(std::move(peers)),
        pending_(8192),
        local_(port_->transport->local_addr()),
        initial_peer_(peers_.front().addr) {
    for (const auto& p : peers_) live_tokens_.insert(p.token);
  }

  ~ClientChannel() override { close(); }

  Result<void> send(Msg m) override {
    ClientChannelGroup::PortPtr port;
    std::vector<Peer> peers;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return err(Errc::cancelled, "connection closed");
      port = port_;
      peers = peers_;
    }
    // A valid dst narrows the fan-out to that one peer.
    bool sent = false;
    for (const auto& p : peers) {
      if (m.dst.valid() && !(m.dst == p.addr)) continue;
      Bytes frame = encode_frame(MsgKind::data, p.token, m.payload);
      BERTHA_TRY(port->transport->send_to(p.addr, frame));
      sent = true;
    }
    if (!sent)
      return err(Errc::invalid_argument,
                 "dst " + m.dst.to_string() + " is not a peer");
    return ok();
  }

  // Encodes the whole batch (with per-peer fan-out) and hands it to the
  // transport in one send_batch call — one sendmmsg on UDP/UDS.
  Result<void> send_batch(std::span<Msg> msgs) override {
    if (msgs.empty()) return ok();
    ClientChannelGroup::PortPtr port;
    std::vector<Peer> peers;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return err(Errc::cancelled, "connection closed");
      port = port_;
      peers = peers_;
    }
    std::vector<Datagram> batch;
    batch.reserve(msgs.size() * peers.size());
    for (const Msg& m : msgs) {
      bool matched = false;
      for (const auto& p : peers) {
        if (m.dst.valid() && !(m.dst == p.addr)) continue;
        Datagram d;
        d.dst = p.addr;
        d.payload.assign(encode_frame(MsgKind::data, p.token, m.payload));
        batch.push_back(std::move(d));
        matched = true;
      }
      if (!matched)
        return err(Errc::invalid_argument,
                   "dst " + m.dst.to_string() + " is not a peer");
    }
    BERTHA_TRY(bertha::send_batch(*port->transport, batch));
    return ok();
  }

  // Raw control frame to the (first) peer: transition acks, fins.
  Result<void> send_frame(MsgKind kind, uint64_t token, BytesView payload) {
    ClientChannelGroup::PortPtr port;
    Addr dst;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return err(Errc::cancelled, "connection closed");
      port = port_;
      dst = peers_.front().addr;
    }
    return port->transport->send_to(dst, encode_frame(kind, token, payload));
  }

  // Half-close: tells the server this epoch carries no more client data
  // (per-path FIFO ordering puts the fin after everything sent above).
  // The channel stays open to drain server->client traffic. A
  // transition-driven fin stamps the target epoch in the payload so the
  // server can recognise it as stale after a rollback.
  void send_fin(BytesView payload = {}) {
    ClientChannelGroup::PortPtr port;
    std::vector<Peer> peers;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_ || fin_sent_) return;
      fin_sent_ = true;
      port = port_;
      peers = peers_;
    }
    for (const auto& p : peers)
      (void)port->transport->send_to(
          p.addr, encode_frame(MsgKind::close, p.token, payload));
  }

  // Re-arm send_fin after a reverted transition: the epoch this channel
  // carries became current again and a future transition must be able to
  // half-close it.
  void clear_fin() {
    std::lock_guard<std::mutex> lk(mu_);
    fin_sent_ = false;
  }

  Result<Msg> recv(Deadline deadline) override {
    for (;;) {
      // Frames another channel's pulling thread routed to us.
      while (auto f = pending_.try_pop()) {
        if (auto m = handle(*f)) return std::move(*m);
      }
      ClientChannelGroup::PortPtr port;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (closed_) return err(Errc::cancelled, "connection closed");
        if (live_tokens_.empty())
          return err(Errc::unavailable, "all peers closed the connection");
        port = port_;
      }
      std::unique_lock<std::mutex> pull(*port->pull_mu, std::try_to_lock);
      if (!pull.owns_lock()) {
        // Another channel is pulling this transport and will route our
        // frames; block on our queue (its push wakes us) with a short
        // slice so we retake the pull role when that channel stops.
        Deadline slice = Deadline::after(ms(10));
        if (!deadline.is_never() && deadline.remaining() < ms(10))
          slice = deadline;
        auto f = pending_.pop(slice);
        if (f.ok()) {
          if (auto m = handle(f.value())) return std::move(*m);
          continue;
        }
        if (f.error().code == Errc::cancelled)
          return err(Errc::cancelled, "connection closed");
        if (deadline.expired())
          return err(Errc::timed_out, "recv deadline expired");
        continue;
      }
      // We are pulling this transport: receive and route. Tenure
      // is bounded so a rebase (port swap) is noticed promptly.
      Deadline slice = Deadline::after(ms(50));
      if (!deadline.is_never() && deadline.remaining() < ms(50))
        slice = deadline;
      auto pkt_r = port->transport->recv(slice);
      pull.unlock();
      if (!pkt_r.ok()) {
        if (pkt_r.error().code == Errc::timed_out) {
          if (deadline.expired())
            return err(Errc::timed_out, "recv deadline expired");
          continue;
        }
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (!closed_ && port_ != port) continue;  // rebased; retry
          if (closed_) return err(Errc::cancelled, "connection closed");
        }
        return pkt_r.error();
      }
      auto frame_r = decode_frame(pkt_r.value().payload);
      if (!frame_r.ok()) continue;  // stray datagram
      RoutedFrame rf;
      rf.kind = frame_r.value().kind;
      rf.token = frame_r.value().token;
      rf.payload.assign(frame_r.value().payload.begin(),
                        frame_r.value().payload.end());
      rf.src = pkt_r.value().src;
      bool mine;
      {
        std::lock_guard<std::mutex> lk(mu_);
        mine = live_tokens_.count(rf.token) > 0;
      }
      if (mine) {
        if (auto m = handle(rf)) return std::move(*m);
        continue;
      }
      group_->route(std::move(rf));
    }
  }

  const Addr& local_addr() const override { return local_; }

  // Reports the peer negotiated at establishment; a rebase (which
  // changes the live destination) does not alter the logical peer.
  const Addr& peer_addr() const override { return initial_peer_; }

  void close() override {
    ClientChannelGroup::PortPtr port;
    std::vector<Peer> peers;
    bool fin_sent;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return;
      closed_ = true;
      port = port_;
      peers = peers_;
      fin_sent = fin_sent_;
    }
    if (!fin_sent) {
      for (const auto& p : peers)
        (void)port->transport->send_to(
            p.addr, encode_frame(MsgKind::close, p.token, {}));
    }
    pending_.close();
    std::vector<uint64_t> tokens;
    for (const auto& p : peers) tokens.push_back(p.token);
    group_->channel_gone(tokens);
    group_->port_drop_user(port);
  }

  // Switch the underlying transport and (single) peer address without
  // renegotiating; the token is preserved, so the server simply follows
  // the new reply path. This is how local_or_remote moves an established
  // connection onto a unix socket.
  Result<void> rebase(TransportPtr new_transport, Addr new_peer) {
    auto np = ClientChannelGroup::make_port(
        std::shared_ptr<Transport>(std::move(new_transport)));
    ClientChannelGroup::PortPtr old;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return err(Errc::cancelled, "connection closed");
      if (peers_.size() != 1)
        return err(Errc::invalid_argument,
                   "rebase only supported for single-peer connections");
      old = port_;
      port_ = np;
      peers_[0].addr = std::move(new_peer);
    }
    group_->port_add_user(np);
    group_->port_drop_user(old);  // closes the transport if we were the
                                  // last channel on it, waking its reader
    return ok();
  }

  uint64_t token() const {
    std::lock_guard<std::mutex> lk(mu_);
    return peers_.front().token;
  }

  ClientChannelGroup::PortPtr port() const {
    std::lock_guard<std::mutex> lk(mu_);
    return port_;
  }
  Addr peer0() const {
    std::lock_guard<std::mutex> lk(mu_);
    return peers_.front().addr;
  }

  void deliver(RoutedFrame f) { (void)pending_.push(std::move(f)); }

 private:
  // Returns a Msg to surface to the caller, or nullopt to keep looping.
  std::optional<Msg> handle(RoutedFrame& f) {
    switch (f.kind) {
      case MsgKind::data: {
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (!live_tokens_.count(f.token)) return std::nullopt;
        }
        Msg m;
        m.src = f.src;
        m.dst = local_;
        m.payload = std::move(f.payload);
        return m;
      }
      case MsgKind::close: {
        std::lock_guard<std::mutex> lk(mu_);
        live_tokens_.erase(f.token);
        return std::nullopt;  // loop notices live_tokens_.empty()
      }
      case MsgKind::transition: {
        auto msg = decode_transition(f.payload);
        if (msg.ok()) group_->on_transition(msg.value(), shared_from_this());
        return std::nullopt;
      }
      case MsgKind::transition_cancel: {
        auto msg = decode_transition_cancel(f.payload);
        if (msg.ok())
          group_->on_transition_cancel(msg.value(), shared_from_this());
        return std::nullopt;
      }
      default:
        return std::nullopt;  // duplicate accept from a retry, etc.
    }
  }

  std::shared_ptr<ClientChannelGroup> group_;
  mutable std::mutex mu_;
  ClientChannelGroup::PortPtr port_;
  std::vector<Peer> peers_;
  std::unordered_set<uint64_t> live_tokens_;
  BlockingQueue<RoutedFrame> pending_;
  Addr local_;
  Addr initial_peer_;
  bool fin_sent_ = false;
  bool closed_ = false;
};

std::shared_ptr<ClientChannel> ClientChannelGroup::add_channel(
    PortPtr port, std::vector<Peer> peers) {
  auto ch =
      std::make_shared<ClientChannel>(shared_from_this(), port, peers);
  {
    std::lock_guard<std::mutex> lk(mu_);
    port->users++;
  }
  for (const auto& p : peers) by_token_.put(p.token, ch);
  return ch;
}

void ClientChannelGroup::route(RoutedFrame f) {
  std::shared_ptr<ClientChannel> ch;
  std::weak_ptr<ClientChannel> w;
  if (by_token_.get(f.token, &w)) {
    ch = w.lock();
    // Self-heal: the channel died without erasing its token (no clean
    // close); drop the dead entry so churn can't accumulate them.
    if (!ch) by_token_.erase(f.token);
  }
  if (ch) {
    ch->deliver(std::move(f));
    return;
  }
  // Unknown tokens are dropped (stragglers for an epoch that already
  // finished) — except a rollback notice: when the old stack drained
  // before the cancel arrived, its channel (and token) are already gone,
  // yet the cancel is exactly what tells us the epoch we cut over to is
  // dead on the server. Hand it to the cancel handler with no via
  // channel; there is nothing left to clear_fin() on anyway.
  if (f.kind == MsgKind::transition_cancel) {
    auto msg = decode_transition_cancel(f.payload);
    if (msg.ok()) on_transition_cancel(msg.value(), nullptr);
  }
}

void ClientChannelGroup::on_transition(
    const TransitionMsg& msg, const std::shared_ptr<ClientChannel>& via) {
  TransitionHandler h;
  {
    std::lock_guard<std::mutex> lk(mu_);
    h = handler_;
  }
  if (h) {
    h(msg, via);
    return;
  }
  // No handler installed: refuse, so the server rolls back cleanly.
  TransitionAckMsg ack;
  ack.epoch = msg.epoch;
  ack.accepted = false;
  ack.errc = static_cast<uint8_t>(Errc::invalid_argument);
  ack.reason = "peer does not support live transitions";
  (void)via->send_frame(MsgKind::transition_ack, msg.new_token,
                        encode_transition_ack(ack));
}

void ClientChannelGroup::on_transition_cancel(
    const TransitionCancelMsg& msg, const std::shared_ptr<ClientChannel>& via) {
  CancelHandler h;
  {
    std::lock_guard<std::mutex> lk(mu_);
    h = cancel_handler_;
  }
  if (h) h(msg, via);
  // Without a handler there is nothing staged to discard.
}

// ----------------------------------------------------------------------
// Server-side per-connection state and connection object.
// ----------------------------------------------------------------------

struct ServerConnState {
  explicit ServerConnState(uint64_t tok) : token(tok), incoming(16384) {}

  const uint64_t token;
  BlockingQueue<Packet> incoming;  // payloads already stripped of header

  std::mutex reply_mu;
  std::shared_ptr<Transport> reply_transport;
  Addr reply_addr;

  void set_reply_path(std::shared_ptr<Transport> t, const Addr& addr) {
    std::lock_guard<std::mutex> lk(reply_mu);
    reply_transport = std::move(t);
    reply_addr = addr;
  }
};

// Everything the listener remembers about one established connection,
// keyed by its *current* token (a live transition re-keys the entry to
// the new epoch's token at cutover).
struct ConnMeta {
  HelloMsg hello;         // for renegotiation
  Addr established_from;  // client handshake source (logical peer)
  uint64_t epoch = 0;
  std::vector<NegotiatedNode> chain;
  std::vector<NodeAlloc> allocs;  // live reservations by chain position
  std::weak_ptr<TransitionableConnection> conn;
  bool transitioning = false;  // an offer is in flight
  // Negotiated while discovery was unreachable (local software fallbacks
  // only); cleared when a later renegotiation sees a healthy catalogue.
  bool degraded = false;
  // Shared liveness timestamps, re-threaded into every epoch's stack so
  // keepalive state survives cutovers.
  ConnLivenessPtr liveness;
};

// One in-flight transition, indexed under both its tokens.
struct TransitionRecord {
  enum class Phase { awaiting_ack, draining };

  uint64_t old_token = 0;
  uint64_t new_token = 0;
  uint64_t epoch = 0;
  TransitionReason reason = TransitionReason::upgrade;
  bool mandatory = false;
  Phase phase = Phase::awaiting_ack;

  Bytes offer_frame;  // retransmitted until acked
  Deadline next_retry = Deadline::never();
  Deadline ack_deadline = Deadline::never();
  Deadline drain_deadline = Deadline::never();
  TimePoint started{};

  // Client fin on the old token that arrived before the ack: applied at
  // cutover (the old incoming queue is closed once it's the old epoch).
  bool old_fin_seen = false;

  bool degraded = false;  // the renegotiated chain is itself degraded

  // The establishing connection's trace context; cutover/drain/rollback
  // spans and the cancel notice carry it.
  TraceContext trace;

  std::vector<NegotiatedNode> new_chain;
  std::vector<NodeAlloc> kept_allocs;  // carried incumbent slots
  std::vector<NodeAlloc> new_allocs;   // released on rollback
  std::vector<uint64_t> retired_allocs;  // released after drain

  std::shared_ptr<ServerConnState> old_st, new_st;
  ConnPtr new_stack;
  std::shared_ptr<TransitionableConnection> conn;
};

class Listener::Impl : public TransitionHost,
                       public std::enable_shared_from_this<Listener::Impl> {
 public:
  Impl(std::shared_ptr<Runtime> rt, std::vector<ChunnelSpec> chain,
       std::string endpoint_name)
      : rt_(std::move(rt)),
        chain_(std::move(chain)),
        endpoint_name_(std::move(endpoint_name)),
        accept_q_(1024) {}

  ~Impl() override { close(); }

  Result<void> start(const Addr& addr) {
    BERTHA_TRY_ASSIGN(t, rt_->transports().bind(addr));
    primary_addr_ = t->local_addr();
    epoch_salt_ = mint_epoch_salt(rt_->config().host_id + "|" +
                                  rt_->config().process_id + "|" +
                                  primary_addr_.to_string());
    std::shared_ptr<Transport> shared(std::move(t));
    {
      std::lock_guard<std::mutex> lk(mu_);
      transports_.push_back(shared);
    }

    // Run on_listen for every locally registered impl of every type in
    // the chain; they may attach extra transports and advertise args.
    for (const auto& spec : chain_) {
      for (const auto& impl : rt_->registry().lookup_type(spec.type)) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          activated_.insert(spec.type + "/" + impl->info().name);
        }
        BERTHA_TRY(run_on_listen(spec, impl));
      }
    }

    return start_demux(shared);
  }

  Result<void> run_on_listen(const ChunnelSpec& spec,
                             const ChunnelImplPtr& impl) {
    ListenContext ctx;
    ctx.listen_addr = primary_addr_;
    ctx.host_id = rt_->config().host_id;
    ctx.transports = &rt_->transports();
    ctx.app_args = spec.args;
    auto self = shared_from_this();
    std::string type = spec.type;
    ctx.add_listen_transport = [self](TransportPtr extra) {
      return self->add_transport(std::move(extra));
    };
    ctx.advertise = [self, type](std::string k, std::string v) {
      std::lock_guard<std::mutex> lk(self->mu_);
      self->advertisements_[type].set(k, std::move(v));
    };
    return impl->on_listen(ctx);
  }

  Result<void> add_transport(TransportPtr t) {
    if (!t) return err(Errc::invalid_argument, "null transport");
    std::shared_ptr<Transport> shared(std::move(t));
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closing_) return err(Errc::cancelled, "listener closed");
      transports_.push_back(shared);
    }
    return start_demux(shared);
  }

  Result<ConnPtr> accept(Deadline deadline) { return accept_q_.pop(deadline); }

  const Addr& addr() const { return primary_addr_; }

  uint64_t connections_accepted() const {
    std::lock_guard<std::mutex> lk(mu_);
    return accepted_;
  }

  uint64_t degraded_connections() const {
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t n = 0;
    for (const auto& [tok, m] : meta_)
      if (m.degraded) n++;
    return n;
  }

  // Live connection-table entries across all shards (both epochs of an
  // in-flight transition count until the drain finishes). Regression
  // hook for the churn tests: must return to zero after teardown.
  uint64_t connections_live() const { return conns_.size(); }

  void close() {
    std::vector<std::shared_ptr<Transport>> transports;
    std::vector<std::shared_ptr<ServerConnState>> states;
    std::vector<uint64_t> allocs;
    ReactorPtr reactor;
    std::vector<uint64_t> reactor_ids;
    // Moved out under the lock, destroyed only after it: dropping a
    // transition record (or connection entry) here can release the last
    // reference to a connection stack whose destructor re-enters
    // connection_closed() and takes mu_ again.
    std::unordered_map<uint64_t, ConnMeta> metas;
    std::unordered_map<uint64_t, std::shared_ptr<TransitionRecord>> recs;
    // First, and outside mu_: waits out a controller sweep running on
    // this listener, after which the controller no longer reaches it.
    rt_->transitions().detach(this);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closing_) return;
      closing_ = true;
      transports = transports_;
      conns_.for_each([&](uint64_t, const std::shared_ptr<ServerConnState>& st) {
        states.push_back(st);
      });
      for (auto& [tok, m] : meta_)
        for (const auto& a : m.allocs) allocs.push_back(a.alloc_id);
      // In-flight transitions hold slots the meta map doesn't: the
      // not-yet-live side before cutover, the not-yet-drained side after.
      for (auto& [tok, rec] : transitions_) {
        if (tok != rec->old_token) continue;  // visit each record once
        if (rec->phase == TransitionRecord::Phase::awaiting_ack) {
          for (const auto& a : rec->new_allocs) allocs.push_back(a.alloc_id);
        } else {
          for (uint64_t id : rec->retired_allocs) allocs.push_back(id);
        }
      }
      conns_.clear();  // states keeps the refs alive past the lock
      metas.swap(meta_);
      recs.swap(transitions_);
      reactor = std::move(reactor_);
      reactor_ids.swap(reactor_ids_);
    }
    // Unregister from the reactor first: remove() blocks until any
    // in-flight handler invocation finishes, so no demux_datagram runs
    // against the maps we are about to clear.
    if (reactor)
      for (uint64_t id : reactor_ids) reactor->remove(id);
    for (auto& t : transports) t->close();
    for (auto& st : states) st->incoming.close();
    for (uint64_t id : allocs) (void)rt_->discovery().release(id);
    accept_q_.close();
  }

  std::map<std::string, ChunnelArgs> advertisements_snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return advertisements_;
  }

  void connection_closed(uint64_t token) {
    std::shared_ptr<ServerConnState> st, other_st;
    std::vector<uint64_t> ids;
    std::shared_ptr<TransitionRecord> rec;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!conns_.take(token, &st)) return;
      auto mit = meta_.find(token);
      if (mit != meta_.end()) {
        for (const auto& a : mit->second.allocs) ids.push_back(a.alloc_id);
        meta_.erase(mit);
      }
      auto tit = transitions_.find(token);
      if (tit != transitions_.end()) {
        // The whole connection is going away mid-transition: tear down
        // the other epoch too. Its slots are disjoint from the meta
        // entry's (pre-cutover meta holds kept+retired and the record
        // holds new; post-cutover meta holds kept+new, record retired).
        rec = tit->second;
        uint64_t other =
            token == rec->old_token ? rec->new_token : rec->old_token;
        transitions_.erase(rec->old_token);
        transitions_.erase(rec->new_token);
        (void)conns_.take(other, &other_st);
        auto omit = meta_.find(other);
        if (omit != meta_.end()) {
          for (const auto& a : omit->second.allocs) ids.push_back(a.alloc_id);
          meta_.erase(omit);
        }
        if (token == rec->old_token) {
          for (const auto& a : rec->new_allocs) ids.push_back(a.alloc_id);
        } else {
          for (uint64_t id : rec->retired_allocs) ids.push_back(id);
        }
      }
    }
    st->incoming.close();
    if (other_st) other_st->incoming.close();
    for (uint64_t id : ids) (void)rt_->discovery().release(id);
  }

  // --- TransitionHost ---

  std::vector<LiveConn> live_connections() const override {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<LiveConn> out;
    out.reserve(meta_.size());
    for (const auto& [tok, m] : meta_) out.push_back({tok, m.chain});
    return out;
  }

  bool refresh_advertisements() override {
    auto before = advertisements_snapshot();
    for (const auto& spec : chain_) {
      for (const auto& impl : rt_->registry().lookup_type(spec.type)) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (closing_) return false;
          if (!activated_.insert(spec.type + "/" + impl->info().name).second)
            continue;  // already ran at listen() or an earlier refresh
        }
        auto r = run_on_listen(spec, impl);
        if (!r.ok())
          BLOG(warn, "listener") << "late on_listen for " << impl->info().name
                                 << " failed: " << r.error().to_string();
      }
    }
    return advertisements_snapshot() != before;
  }

  void bind_stats(StatsSinkPtr sink) override {
    std::lock_guard<std::mutex> lk(mu_);
    stats_ = std::move(sink);
  }

  Result<Begin> begin_transition(
      uint64_t token, TransitionReason reason,
      const std::vector<std::pair<std::string, std::string>>& banned,
      bool mandatory) override;
  void sweep_transitions() override;

 private:
  StatsSinkPtr sink() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }
  template <typename F>
  void stat(F f) {
    if (auto s = sink()) s->update(f);
  }

  void handle_transition_ack(const std::shared_ptr<Transport>& transport,
                             const Addr& src, uint64_t token,
                             BytesView payload);
  void do_cutover(const std::shared_ptr<TransitionRecord>& rec);
  void rollback(const std::shared_ptr<TransitionRecord>& rec, bool declined);
  void transition_drained(uint64_t old_token, bool forced, uint64_t drained);
  // Registers the transport with the runtime's shared reactor (batched
  // epoll rx); fails if the reactor cannot be created or refuses it.
  Result<void> start_demux(std::shared_ptr<Transport> t) {
    BERTHA_TRY_ASSIGN(reactor, rt_->ensure_reactor());
    auto self = shared_from_this();
    BERTHA_TRY_ASSIGN(
        id, reactor->add(t, [self, t](std::span<Datagram> batch) {
          for (Datagram& d : batch)
            self->demux_datagram(t, d.src, d.payload.view());
        }));
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!closing_) {
        reactor_ = reactor;
        reactor_ids_.push_back(id);
        return ok();
      }
    }
    // Lost the race with close(): unregister outside the lock.
    reactor->remove(id);
    return err(Errc::cancelled, "listener closed");
  }

  // One datagram's worth of demux work, run by the reactor handler.
  void demux_datagram(const std::shared_ptr<Transport>& transport,
                      const Addr& src, BytesView payload) {
    auto frame_r = decode_frame(payload);
    if (!frame_r.ok()) {
      BLOG(debug, "listener") << "dropping malformed datagram from "
                              << src.to_string();
      return;
    }
    const Frame& f = frame_r.value();

    switch (f.kind) {
      case MsgKind::hello:
        handle_hello(transport, src, f.payload);
        break;
      case MsgKind::data: {
        // Hot path: one striped-shard lock, never the listener mu_ — rx
        // workers demuxing different connections proceed in parallel.
        std::shared_ptr<ServerConnState> st;
        (void)conns_.get(f.token, &st);
        if (!st) break;  // unknown token: connection gone
        st->set_reply_path(transport, src);
        Packet data;
        data.src = src;
        data.payload.assign(f.payload.begin(), f.payload.end());
        (void)st->incoming.push(std::move(data));
        break;
      }
      case MsgKind::close: {
        std::shared_ptr<TransitionRecord> rec;
        {
          std::lock_guard<std::mutex> lk(mu_);
          auto it = transitions_.find(f.token);
          if (it != transitions_.end()) rec = it->second;
        }
        if (!rec) {
          // A fin stamped with a future epoch belonged to a transition
          // that no longer exists (the offer was rolled back and the
          // client told to revert): ignore it instead of tearing down
          // the reverted connection.
          if (!f.payload.empty()) {
            auto fin = decode_transition_cancel(f.payload);
            bool stale = false;
            if (fin.ok()) {
              std::lock_guard<std::mutex> lk(mu_);
              auto mit = meta_.find(f.token);
              stale =
                  mit != meta_.end() && fin.value().epoch > mit->second.epoch;
            }
            if (stale) break;
          }
          connection_closed(f.token);
          break;
        }
        if (f.token == rec->old_token) {
          // Client fin for the pre-transition epoch: per-path FIFO means
          // everything the client sent on the old token is already in
          // the queue, so closing it lets the drain finish naturally.
          std::lock_guard<std::mutex> lk(mu_);
          if (rec->phase == TransitionRecord::Phase::draining) {
            rec->old_st->incoming.close();
          } else {
            rec->old_fin_seen = true;  // applied at cutover
          }
        } else {
          // Close on the new token while the transition is pending:
          // the client abandoned the new epoch.
          rollback(rec, /*declined=*/false);
        }
        break;
      }
      case MsgKind::transition_ack:
        handle_transition_ack(transport, src, f.token, f.payload);
        break;
      default:
        break;  // accept/reject/discovery are not for a listener
    }
  }

  void handle_hello(const std::shared_ptr<Transport>& transport,
                    const Addr& src, BytesView payload);

  std::shared_ptr<Runtime> rt_;
  std::vector<ChunnelSpec> chain_;
  std::string endpoint_name_;
  Addr primary_addr_;
  // High-bits namespace for minted transition epochs (see
  // mint_epoch_salt); derived from host/process/listen address so
  // distinct servers never mint colliding epoch identifiers.
  uint64_t epoch_salt_ = 0;

  BlockingQueue<ConnPtr> accept_q_;

  mutable std::mutex mu_;
  bool closing_ = false;
  uint64_t accepted_ = 0;
  std::atomic<uint64_t> next_token_{1};
  std::vector<std::shared_ptr<Transport>> transports_;
  // Registrations with the runtime's reactor, one per transport.
  ReactorPtr reactor_;
  std::vector<uint64_t> reactor_ids_;
  std::map<std::string, ChunnelArgs> advertisements_;
  // Token -> connection state, looked up on every data datagram. Lock-
  // striped so rx workers demuxing different connections never contend;
  // mutations that must stay coherent with meta_/transitions_ happen
  // under mu_ (mu_ -> shard lock is the only permitted order).
  ShardedMap<std::shared_ptr<ServerConnState>> conns_{32};
  std::unordered_map<uint64_t, ConnMeta> meta_;
  // Both tokens of an in-flight transition map to the same record.
  std::unordered_map<uint64_t, std::shared_ptr<TransitionRecord>> transitions_;
  // (type "/" impl) pairs whose on_listen already ran.
  std::unordered_set<std::string> activated_;
  StatsSinkPtr stats_;
  // Handshake retransmission cache: hello identity -> encoded Accept.
  // Bounded FIFO: retransmissions arrive within the handshake window,
  // so only recent entries matter; old ones are evicted to keep a
  // long-lived listener's memory flat.
  static constexpr size_t kHelloCacheCap = 1024;
  std::unordered_map<std::string, Bytes> hello_cache_;
  std::deque<std::string> hello_cache_order_;
};

// The server half of an established connection.
class ServerConnection final : public Connection {
 public:
  ServerConnection(std::shared_ptr<ServerConnState> st,
                   std::weak_ptr<Listener::Impl> listener, Addr local,
                   Addr peer)
      : st_(std::move(st)),
        listener_(std::move(listener)),
        local_(std::move(local)),
        peer_(std::move(peer)) {}

  ~ServerConnection() override { close(); }

  Result<void> send(Msg m) override {
    std::shared_ptr<Transport> t;
    Addr dst;
    {
      std::lock_guard<std::mutex> lk(st_->reply_mu);
      t = st_->reply_transport;
      dst = st_->reply_addr;
    }
    if (!t) return err(Errc::unavailable, "no reply path yet");
    Bytes frame = encode_frame(MsgKind::data, st_->token, m.payload);
    return t->send_to(dst, frame);
  }

  Result<void> send_batch(std::span<Msg> msgs) override {
    if (msgs.empty()) return ok();
    std::shared_ptr<Transport> t;
    Addr dst;
    {
      std::lock_guard<std::mutex> lk(st_->reply_mu);
      t = st_->reply_transport;
      dst = st_->reply_addr;
    }
    if (!t) return err(Errc::unavailable, "no reply path yet");
    std::vector<Datagram> batch(msgs.size());
    for (size_t i = 0; i < msgs.size(); i++) {
      batch[i].dst = dst;
      batch[i].payload.assign(
          encode_frame(MsgKind::data, st_->token, msgs[i].payload));
    }
    BERTHA_TRY(bertha::send_batch(*t, batch));
    return ok();
  }

  Result<Msg> recv(Deadline deadline) override {
    BERTHA_TRY_ASSIGN(pkt, st_->incoming.pop(deadline));
    Msg m;
    m.src = std::move(pkt.src);
    m.dst = local_;
    m.payload = std::move(pkt.payload);
    return m;
  }

  const Addr& local_addr() const override { return local_; }
  const Addr& peer_addr() const override { return peer_; }

  void close() override {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true)) return;
    // Best-effort close notice to the client.
    std::shared_ptr<Transport> t;
    Addr dst;
    {
      std::lock_guard<std::mutex> lk(st_->reply_mu);
      t = st_->reply_transport;
      dst = st_->reply_addr;
    }
    if (t) {
      Bytes frame = encode_frame(MsgKind::close, st_->token, {});
      (void)t->send_to(dst, frame);
    }
    if (auto l = listener_.lock()) l->connection_closed(st_->token);
  }

 private:
  std::shared_ptr<ServerConnState> st_;
  std::weak_ptr<Listener::Impl> listener_;
  Addr local_;
  Addr peer_;
  std::atomic<bool> closed_{false};
};

void Listener::Impl::handle_hello(const std::shared_ptr<Transport>& transport,
                                  const Addr& src, BytesView payload) {
  auto hello_r = decode_hello(payload);
  if (!hello_r.ok()) {
    Bytes rej = encode_frame(
        MsgKind::reject, 0,
        encode_reject({static_cast<uint8_t>(Errc::protocol_error),
                       hello_r.error().message}));
    (void)transport->send_to(src, rej);
    return;
  }
  const HelloMsg& hello = hello_r.value();

  // Retransmitted hello (client handshake retry): resend the same Accept
  // instead of creating a second connection.
  std::string cache_key = src.to_string() + "|" + hello.process_id + "|" +
                          hello.endpoint_name;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = hello_cache_.find(cache_key);
    if (it != hello_cache_.end()) {
      Span s = trace_span(rt_->tracer(), "server.negotiate", hello.trace);
      s.tag("dedup_hit", "1");
      (void)transport->send_to(src, it->second);
      return;
    }
  }

  // Parent to the client's wire-propagated connect span; the ambient
  // scope makes discovery RPCs issued during negotiation children too.
  Span neg_span = trace_span(rt_->tracer(), "server.negotiate", hello.trace);
  neg_span.tag("endpoint", hello.endpoint_name);
  SpanScope neg_scope(neg_span);

  auto neg = negotiate_server(chain_, hello, rt_->registry(), rt_->discovery(),
                              *rt_->config().policy, advertisements_snapshot(),
                              rt_->config().host_id,
                              rt_->config().optimizer.get());
  if (!neg.ok()) {
    BLOG(info, "listener") << "rejecting " << hello.endpoint_name << ": "
                           << neg.error().to_string();
    Bytes rej = encode_frame(
        MsgKind::reject, 0,
        encode_reject({static_cast<uint8_t>(neg.error().code),
                       neg.error().message}));
    (void)transport->send_to(src, rej);
    return;
  }

  uint64_t token = next_token_.fetch_add(1);
  auto st = std::make_shared<ServerConnState>(token);
  st->set_reply_path(transport, src);

  AcceptMsg accept;
  accept.token = token;
  accept.host_id = rt_->config().host_id;
  accept.process_id = rt_->config().process_id;
  accept.chain = neg.value().chain;
  if (!rt_->config().attestation_secret.empty())
    accept.chain_digest =
        attest_chain(accept.chain, rt_->config().attestation_secret);
  Bytes accept_frame = encode_frame(MsgKind::accept, token,
                                    encode_accept(accept));

  ConnMeta meta;
  meta.hello = hello;
  meta.established_from = src;
  meta.chain = accept.chain;
  meta.degraded = neg.value().degraded;
  if (meta.degraded) neg_span.tag("degraded", "1");
  meta.liveness = std::make_shared<ConnLiveness>();
  ConnLivenessPtr liveness = meta.liveness;
  if (meta.degraded)
    BLOG(warn, "listener") << "degraded establishment for "
                           << hello.endpoint_name
                           << " (discovery unreachable; local fallbacks only)";
  for (size_t i = 0; i < neg.value().resource_allocs.size(); i++)
    meta.allocs.push_back(
        {neg.value().alloc_nodes[i], neg.value().resource_allocs[i]});

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closing_) return;
    conns_.put(token, st);
    meta_[token] = std::move(meta);
    if (hello_cache_.emplace(cache_key, accept_frame).second) {
      hello_cache_order_.push_back(cache_key);
      if (hello_cache_order_.size() > kHelloCacheCap) {
        hello_cache_.erase(hello_cache_order_.front());
        hello_cache_order_.pop_front();
      }
    }
    accepted_++;
  }

  // Wrap the server half of the stack.
  ConnPtr base = std::make_shared<ServerConnection>(
      st, weak_from_this(), primary_addr_, src);
  WrapContext ctx;
  ctx.role = Role::server;
  ctx.local_host_id = rt_->config().host_id;
  ctx.peer_host_id = hello.host_id;
  ctx.token = token;
  ctx.listen_addr = primary_addr_;
  ctx.transports = &rt_->transports();
  ctx.liveness = liveness;
  ctx.wheel = rt_->timer_wheel();
  Span build_span =
      trace_span(rt_->tracer(), "server.build_stack", neg_span.context());
  auto wrapped = build_stack(*rt_, accept.chain, std::move(base), ctx);
  build_span.finish();
  if (!wrapped.ok()) {
    BLOG(error, "listener") << "stack build failed: "
                            << wrapped.error().to_string();
    connection_closed(token);
    Bytes rej = encode_frame(
        MsgKind::reject, 0,
        encode_reject({static_cast<uint8_t>(wrapped.error().code),
                       wrapped.error().message}));
    (void)transport->send_to(src, rej);
    return;
  }

  // Outermost wrapper: lets the transition controller swap the stack
  // underneath the application at an epoch boundary.
  auto tconn = std::make_shared<TransitionableConnection>(
      std::move(wrapped).value(), accept.chain, /*external_cutover=*/true,
      rt_->transitions().tuning(), rt_->transitions().stats_sink());
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = meta_.find(token);
    if (it != meta_.end()) it->second.conn = tconn;
  }

  // Register the connection before the client learns the token, then
  // hand it to accept().
  (void)transport->send_to(src, accept_frame);
  (void)accept_q_.push(std::move(tconn));
}

// --- Live transitions (TransitionHost) ---

Result<TransitionHost::Begin> Listener::Impl::begin_transition(
    uint64_t token, TransitionReason reason,
    const std::vector<std::pair<std::string, std::string>>& banned,
    bool mandatory) {
  HelloMsg hello;
  std::vector<NegotiatedNode> current;
  std::vector<NodeAlloc> cur_allocs;
  Addr peer;
  std::shared_ptr<TransitionableConnection> tconn;
  std::shared_ptr<ServerConnState> old_st;
  ConnLivenessPtr liveness;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closing_) return err(Errc::cancelled, "listener closed");
    auto it = meta_.find(token);
    if (it == meta_.end()) return err(Errc::not_found, "no such connection");
    if (it->second.transitioning) return Begin::busy;
    it->second.transitioning = true;
    hello = it->second.hello;
    current = it->second.chain;
    cur_allocs = it->second.allocs;
    peer = it->second.established_from;
    epoch = epoch_salt_ | ((it->second.epoch + 1) & kEpochCounterMask);
    liveness = it->second.liveness;
    tconn = it->second.conn.lock();
    (void)conns_.get(token, &old_st);
  }
  auto abandon = [&] {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = meta_.find(token);
    if (it != meta_.end()) it->second.transitioning = false;
  };
  if (!tconn || !old_st) {
    abandon();
    return err(Errc::not_found, "connection already torn down");
  }

  // Joins the trace that established the connection (hello.trace); the
  // ambient scope pulls renegotiation-time discovery RPCs in as well.
  Span offer_span = trace_span(rt_->tracer(), "transition.offer", hello.trace);
  offer_span.tag_u64("epoch", epoch);
  SpanScope offer_scope(offer_span);

  // Re-run selection with the incumbent seeded in (renegotiate_server
  // does not touch slots the connection already holds). The runtime's
  // optimizer rides along so a mid-life stage rewrite — a merged offload
  // or a synthesized switch program appearing after establishment — can
  // restage the chain before cutover.
  auto reneg_r = renegotiate_server(
      chain_, current, cur_allocs, hello, rt_->registry(), rt_->discovery(),
      *rt_->config().policy, advertisements_snapshot(), rt_->config().host_id,
      banned, rt_->config().optimizer.get());
  if (!reneg_r.ok()) {
    abandon();
    return reneg_r.error();
  }
  RenegotiationResult reneg = std::move(reneg_r).value();
  auto release_new = [&] {
    for (const auto& a : reneg.new_allocs)
      (void)rt_->discovery().release(a.alloc_id);
  };
  if (!reneg.changed) {
    abandon();
    return Begin::unchanged;
  }

  // Stage the new epoch: fresh token, fresh server state, fresh stack.
  uint64_t new_token = next_token_.fetch_add(1);
  auto new_st = std::make_shared<ServerConnState>(new_token);
  ConnPtr base = std::make_shared<ServerConnection>(new_st, weak_from_this(),
                                                    primary_addr_, peer);
  WrapContext ctx;
  ctx.role = Role::server;
  ctx.local_host_id = rt_->config().host_id;
  ctx.peer_host_id = hello.host_id;
  ctx.token = new_token;
  ctx.listen_addr = primary_addr_;
  ctx.transports = &rt_->transports();
  ctx.liveness = liveness;
  ctx.wheel = rt_->timer_wheel();
  Span stage_span =
      trace_span(rt_->tracer(), "transition.stage", offer_span.context());
  stage_span.tag_u64("epoch", epoch);
  auto stack = build_stack(*rt_, reneg.chain, std::move(base), ctx);
  stage_span.finish();
  if (!stack.ok()) {
    release_new();
    abandon();
    return stack.error();
  }

  TransitionMsg msg;
  msg.epoch = epoch;
  msg.new_token = new_token;
  msg.reason = reason;
  msg.mandatory = mandatory;
  msg.chain = reneg.chain;
  msg.trace = hello.trace;  // client-side handling joins the same trace
  if (!rt_->config().attestation_secret.empty())
    msg.chain_digest =
        attest_chain(reneg.chain, rt_->config().attestation_secret);

  const TransitionTuning& tun = rt_->transitions().tuning();
  auto rec = std::make_shared<TransitionRecord>();
  rec->old_token = token;
  rec->new_token = new_token;
  rec->epoch = epoch;
  rec->reason = reason;
  rec->mandatory = mandatory;
  rec->offer_frame =
      encode_frame(MsgKind::transition, token, encode_transition(msg));
  rec->next_retry = Deadline::after(tun.offer_retry);
  rec->ack_deadline = Deadline::after(tun.ack_timeout);
  rec->started = now();
  rec->degraded = reneg.degraded;
  rec->trace = hello.trace;
  rec->new_chain = reneg.chain;
  rec->kept_allocs = std::move(reneg.kept_allocs);
  rec->new_allocs = std::move(reneg.new_allocs);
  rec->retired_allocs = std::move(reneg.retired_allocs);
  rec->old_st = old_st;
  rec->new_st = new_st;
  rec->new_stack = std::move(stack).value();
  rec->conn = tconn;

  bool registered = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!closing_ && meta_.count(token)) {
      conns_.put(new_token, new_st);
      transitions_[token] = rec;
      transitions_[new_token] = rec;
      registered = true;
    }
  }
  if (!registered) {  // lost a race with close/teardown
    release_new();
    rec->new_stack->close();
    abandon();
    return err(Errc::cancelled, "connection closed during renegotiation");
  }

  // Offer on the *current* reply path; the ack returns on the new token.
  std::shared_ptr<Transport> reply_t;
  Addr reply_dst;
  {
    std::lock_guard<std::mutex> lk(old_st->reply_mu);
    reply_t = old_st->reply_transport;
    reply_dst = old_st->reply_addr;
  }
  if (reply_t) (void)reply_t->send_to(reply_dst, rec->offer_frame);
  stat([](TransitionStats& s) { s.offers_sent++; });
  BLOG(info, "transition") << "offer epoch " << epoch << " token " << token
                           << " -> " << new_token;
  return Begin::started;
}

void Listener::Impl::sweep_transitions() {
  std::vector<std::shared_ptr<TransitionRecord>> retransmit, give_up, force;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [tok, rec] : transitions_) {
      if (tok != rec->old_token) continue;  // visit each record once
      if (rec->phase == TransitionRecord::Phase::awaiting_ack) {
        if (rec->ack_deadline.expired()) {
          give_up.push_back(rec);
        } else if (rec->next_retry.expired()) {
          rec->next_retry =
              Deadline::after(rt_->transitions().tuning().offer_retry);
          retransmit.push_back(rec);
        }
      } else if (rec->drain_deadline.expired()) {
        force.push_back(rec);
      }
    }
  }
  for (auto& rec : retransmit) {
    std::shared_ptr<Transport> t;
    Addr dst;
    {
      std::lock_guard<std::mutex> lk(rec->old_st->reply_mu);
      t = rec->old_st->reply_transport;
      dst = rec->old_st->reply_addr;
    }
    if (t) (void)t->send_to(dst, rec->offer_frame);
    stat([](TransitionStats& s) { s.offers_sent++; });
  }
  for (auto& rec : give_up) {
    if (rec->mandatory) {
      // A revocation cannot wait on an unresponsive client: close the
      // connection so the slot frees.
      stat([](TransitionStats& s) { s.closed_mandatory++; });
      rollback(rec, /*declined=*/false);
      if (rec->conn) rec->conn->close();
      connection_closed(rec->old_token);
    } else {
      rollback(rec, /*declined=*/false);
    }
  }
  for (auto& rec : force) {
    if (rec->conn) rec->conn->force_drain();  // fires transition_drained
  }
}

void Listener::Impl::handle_transition_ack(
    const std::shared_ptr<Transport>& transport, const Addr& src,
    uint64_t token, BytesView payload) {
  auto ack_r = decode_transition_ack(payload);
  if (!ack_r.ok()) return;
  const TransitionAckMsg& ack = ack_r.value();
  std::shared_ptr<TransitionRecord> rec;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = transitions_.find(token);
    if (it == transitions_.end()) return;  // stale or duplicate
    rec = it->second;
    if (token != rec->new_token) return;  // acks travel the new path
    if (rec->phase != TransitionRecord::Phase::awaiting_ack) return;
    if (ack.epoch != rec->epoch) return;
  }
  if (ack.accepted) {
    // The ack arrived over the new epoch's path: that is the new
    // reply route (it may be a different transport after a rebase).
    rec->new_st->set_reply_path(transport, src);
    do_cutover(rec);
  } else {
    BLOG(info, "transition") << "epoch " << rec->epoch
                             << " declined: " << ack.reason;
    bool mandatory = rec->mandatory;
    rollback(rec, /*declined=*/true);
    if (mandatory) {
      // Revocations cannot be declined; the implementation is going away.
      stat([](TransitionStats& s) { s.closed_mandatory++; });
      if (rec->conn) rec->conn->close();
      connection_closed(rec->old_token);
    }
  }
}

void Listener::Impl::do_cutover(const std::shared_ptr<TransitionRecord>& rec) {
  Span span = trace_span(rt_->tracer(), "transition.cutover", rec->trace);
  span.tag_u64("epoch", rec->epoch);
  bool fin_seen;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (rec->phase != TransitionRecord::Phase::awaiting_ack) return;
    // An ack racing the sweep's give-up: rollback() may have erased the
    // record (and released its staged slot allocations) between this
    // thread's phase check in handle_transition_ack and here. Cutting
    // over anyway would resurrect freed reservations into the meta
    // entry — a staged-but-rolled-back transition must stay rolled
    // back, its slots released exactly once.
    auto tit = transitions_.find(rec->old_token);
    if (tit == transitions_.end() || tit->second != rec) return;
    rec->phase = TransitionRecord::Phase::draining;
    rec->drain_deadline =
        Deadline::after(rt_->transitions().tuning().drain_timeout);
    fin_seen = rec->old_fin_seen;
    // Re-key the connection to its new epoch. Kept + new slots ride in
    // the meta entry; retired slots stay on the record until drained.
    auto mit = meta_.find(rec->old_token);
    if (mit != meta_.end()) {
      ConnMeta m = std::move(mit->second);
      meta_.erase(mit);
      m.epoch = rec->epoch;
      m.chain = rec->new_chain;
      m.degraded = rec->degraded;
      m.allocs = rec->kept_allocs;
      m.allocs.insert(m.allocs.end(), rec->new_allocs.begin(),
                      rec->new_allocs.end());
      m.transitioning = true;  // until the drain finishes
      meta_[rec->new_token] = std::move(m);
    }
  }
  auto self = shared_from_this();
  uint64_t old_token = rec->old_token;
  auto r = rec->conn->cutover(
      rec->epoch, rec->new_stack, rec->new_chain,
      [self, old_token](bool forced, uint64_t drained) {
        self->transition_drained(old_token, forced, drained);
      });
  if (!r.ok()) {
    // Stale epoch or the application closed the connection underneath
    // us: tear the (already re-keyed) connection down entirely.
    connection_closed(rec->new_token);
    return;
  }
  if (fin_seen) rec->old_st->incoming.close();
}

void Listener::Impl::rollback(const std::shared_ptr<TransitionRecord>& rec,
                              bool declined) {
  Span span = trace_span(rt_->tracer(), "transition.rollback", rec->trace);
  span.tag_u64("epoch", rec->epoch);
  span.tag("declined", declined ? "1" : "0");
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = transitions_.find(rec->old_token);
    if (it == transitions_.end() || it->second != rec) return;
    if (rec->phase != TransitionRecord::Phase::awaiting_ack)
      return;  // already cut over; too late to roll back
    transitions_.erase(rec->old_token);
    transitions_.erase(rec->new_token);
    conns_.erase(rec->new_token);
    auto mit = meta_.find(rec->old_token);
    if (mit != meta_.end()) mit->second.transitioning = false;
  }
  // Tell the client the offer is dead. It may have cut over and acked
  // into the void (the ack was lost); the cancel — sent on the old
  // token, which the client still drains — makes it revert to the
  // previous epoch instead of waiting on a stack the server will never
  // serve. Sent before the new stack's close frame so a reverting client
  // processes the cancel first (per-path FIFO). Best effort: a lost
  // cancel leaves the client stuck exactly as it would have been without
  // this notice. Counted first: a client acting on it finds it recorded.
  stat([declined](TransitionStats& s) {
    if (declined)
      s.declined++;
    else
      s.rolled_back++;
  });
  {
    std::shared_ptr<Transport> t;
    Addr dst;
    {
      std::lock_guard<std::mutex> lk(rec->old_st->reply_mu);
      t = rec->old_st->reply_transport;
      dst = rec->old_st->reply_addr;
    }
    if (t) {
      TransitionCancelMsg cancel;
      cancel.epoch = rec->epoch;
      cancel.trace = rec->trace;
      Bytes frame = encode_frame(MsgKind::transition_cancel, rec->old_token,
                                 encode_transition_cancel(cancel));
      stat([](TransitionStats& s) { s.cancels_sent++; });
      (void)t->send_to(dst, frame);
    }
  }
  rec->new_st->incoming.close();
  for (const auto& a : rec->new_allocs)
    (void)rt_->discovery().release(a.alloc_id);
  rec->new_stack->close();
}

void Listener::Impl::transition_drained(uint64_t old_token, bool forced,
                                        uint64_t drained) {
  std::shared_ptr<TransitionRecord> rec;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = transitions_.find(old_token);
    if (it == transitions_.end()) return;
    rec = it->second;
    transitions_.erase(rec->old_token);
    transitions_.erase(rec->new_token);
    conns_.erase(old_token);
    auto mit = meta_.find(rec->new_token);
    if (mit != meta_.end()) mit->second.transitioning = false;
  }
  Span span = trace_span(rt_->tracer(), "transition.drain", rec->trace);
  span.tag_u64("epoch", rec->epoch);
  span.tag_u64("drained_msgs", drained);
  if (forced) span.tag("forced", "1");
  rec->old_st->incoming.close();
  // Drain-before-release: only now do the replaced nodes' slots free.
  for (uint64_t id : rec->retired_allocs) (void)rt_->discovery().release(id);
  uint64_t dur_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now() -
                                                           rec->started)
          .count());
  stat([forced, drained, dur_ns](TransitionStats& s) {
    s.completed++;
    if (forced) s.forced_cutovers++;
    s.drained_msgs += drained;
    s.total_cutover_ns += dur_ns;
    if (dur_ns > s.max_cutover_ns) s.max_cutover_ns = dur_ns;
  });
  BLOG(info, "transition") << "epoch " << rec->epoch << " drained ("
                           << drained << " msgs, forced=" << forced << ")";
}

// --- Listener public API ---

Listener::~Listener() { impl_->close(); }
const Addr& Listener::addr() const { return impl_->addr(); }
Result<ConnPtr> Listener::accept(Deadline deadline) {
  return impl_->accept(deadline);
}
void Listener::close() { impl_->close(); }
uint64_t Listener::connections_accepted() const {
  return impl_->connections_accepted();
}
uint64_t Listener::degraded_connections() const {
  return impl_->degraded_connections();
}
uint64_t Listener::connections_live() const {
  return impl_->connections_live();
}

// --- Endpoint ---

Result<std::unique_ptr<Listener>> Endpoint::listen(const Addr& addr) {
  auto impl = std::make_shared<Listener::Impl>(rt_, chain_, name_);
  BERTHA_TRY(impl->start(addr));
  // Make the listener's connections eligible for live transitions; the
  // controller's watch/sweep thread starts with the first listener.
  rt_->transitions().attach(impl.get());
  if (!rt_->transitions().running())
    (void)rt_->transitions().start(rt_->discovery());
  return std::unique_ptr<Listener>(new Listener(std::move(impl)));
}

Result<ConnPtr> Endpoint::connect(const Addr& server, Deadline deadline) {
  return connect(std::vector<Addr>{server}, deadline);
}

Result<ConnPtr> Endpoint::connect(const std::vector<Addr>& servers,
                                  Deadline deadline) {
  if (servers.empty())
    return err(Errc::invalid_argument, "connect needs at least one address");

  Addr bind = client_bind_for(servers.front(), rt_->config().host_id);
  if (!bind.valid())
    return err(Errc::invalid_argument,
               "cannot derive bind addr for " + servers.front().to_string());
  BERTHA_TRY_ASSIGN(t, rt_->transports().bind(bind));
  std::shared_ptr<Transport> transport(std::move(t));

  // Root span for establishment; its context rides in the hello so the
  // server's negotiation (and the discovery RPCs it makes) join this
  // trace. Lives until connect returns.
  Span connect_span =
      trace_span(rt_->tracer(), "client.connect", current_trace_context());
  connect_span.tag("endpoint", name_);
  SpanScope connect_scope(connect_span);

  HelloMsg hello;
  hello.endpoint_name = name_ + "#" + make_unique_id();
  hello.host_id = rt_->config().host_id;
  hello.process_id = rt_->config().process_id;
  hello.dag = ChunnelDag::chain(chain_);
  hello.trace = connect_span.context();
  // Offer everything this process can instantiate for the DAG's types;
  // with an empty DAG (Listing 5) the server's chain governs, so offer
  // every registered type.
  if (chain_.empty()) {
    for (const auto& type : rt_->registry().types())
      hello.offers[type] = rt_->registry().infos_for(type);
  } else {
    for (const auto& spec : chain_)
      hello.offers[spec.type] = rt_->registry().infos_for(spec.type);
  }
  Bytes hello_body = encode_hello(hello);
  Bytes hello_frame = encode_frame(MsgKind::hello, 0, hello_body);

  const auto& cfg = rt_->config();
  std::vector<Peer> peers;
  std::vector<AcceptMsg> accepts;

  for (const Addr& server : servers) {
    std::optional<AcceptMsg> accept;
    Addr accepted_from = server;
    Error last = err(Errc::timed_out, "handshake timed out");
    for (int attempt = 0; attempt <= cfg.handshake_retries && !accept;
         attempt++) {
      if (deadline.expired()) return err(Errc::timed_out, "connect deadline");
      Span att_span = trace_span(rt_->tracer(), "client.hello_attempt",
                                 connect_span.context());
      att_span.tag_u64("attempt", static_cast<uint64_t>(attempt));
      BERTHA_TRY(transport->send_to(server, hello_frame));
      Deadline attempt_dl = Deadline::after(cfg.handshake_timeout);
      for (;;) {
        auto pkt_r = transport->recv(attempt_dl);
        if (!pkt_r.ok()) {
          last = pkt_r.error();
          if (last.code == Errc::timed_out) break;  // retry hello
          return last;
        }
        auto frame_r = decode_frame(pkt_r.value().payload);
        if (!frame_r.ok()) continue;
        const Frame& f = frame_r.value();
        if (f.kind == MsgKind::reject) {
          auto rej = decode_reject(f.payload);
          std::string why = rej.ok() ? rej.value().reason : "(malformed reject)";
          return err(Errc::connection_failed,
                     "server " + server.to_string() + " rejected: " + why);
        }
        if (f.kind != MsgKind::accept) continue;
        // Multi-endpoint connects must attribute each Accept to the
        // server it dialed. A single-target dial accepts a reply from
        // any source: the dialed address may be an anycast/virtual
        // address (§3.2) and the Accept arrives from the concrete
        // instance the network routed us to.
        if (servers.size() > 1 && !(pkt_r.value().src == server)) continue;
        auto acc = decode_accept(f.payload);
        if (!acc.ok()) return acc.error();
        accept = std::move(acc).value();
        accepted_from = pkt_r.value().src;
        break;
      }
    }
    if (!accept)
      return err(Errc::connection_failed,
                 "no response from " + server.to_string() + " (" +
                     last.to_string() + ")");
    // §6 attestation: a client configured with a deployment secret
    // refuses chains the server did not attest with the same secret.
    if (!cfg.attestation_secret.empty() &&
        accept->chain_digest !=
            attest_chain(accept->chain, cfg.attestation_secret)) {
      return err(Errc::connection_failed,
                 "server " + server.to_string() +
                     " failed chain attestation (secret mismatch or "
                     "unattested chain)");
    }
    // Pin the data path to the concrete instance that accepted (equal
    // to `server` except for anycast/virtual addresses).
    peers.push_back({accepted_from, accept->token});
    accepts.push_back(std::move(*accept));
  }

  auto group = std::make_shared<ClientChannelGroup>();
  auto port = ClientChannelGroup::make_port(transport);
  auto channel = group->add_channel(port, peers);

  if (auto wheel = rt_->timer_wheel()) group->arm_sweep(wheel);

  auto liveness = std::make_shared<ConnLiveness>();

  WrapContext ctx;
  ctx.role = Role::client;
  ctx.local_host_id = cfg.host_id;
  ctx.peer_host_id = accepts.front().host_id;
  ctx.token = peers.front().token;
  ctx.transports = &rt_->transports();
  ctx.liveness = liveness;
  ctx.wheel = rt_->timer_wheel();
  if (peers.size() == 1) {
    std::weak_ptr<ClientChannel> weak = channel;
    ctx.rebase = [weak](TransportPtr nt, Addr np) -> Result<void> {
      auto conn = weak.lock();
      if (!conn) return err(Errc::cancelled, "connection gone");
      return conn->rebase(std::move(nt), std::move(np));
    };
  }

  Span client_build_span =
      trace_span(rt_->tracer(), "client.build_stack", connect_span.context());
  BERTHA_TRY_ASSIGN(stack,
                    build_stack(*rt_, accepts.front().chain, channel, ctx));
  client_build_span.finish();
  auto tconn = std::make_shared<TransitionableConnection>(
      std::move(stack), accepts.front().chain, /*external_cutover=*/false,
      rt_->transitions().tuning(), rt_->transitions().stats_sink());

  // Server-initiated live transitions. The handler runs on whichever
  // thread surfaced the offer frame (inside tconn->recv), so the swap
  // happens on the application's own recv thread.
  struct TransitionCtl {
    std::mutex mu;
    uint64_t current_epoch = 0;
    std::unordered_set<uint64_t> in_progress;
    struct SentAck {
      Bytes payload;
      uint64_t token = 0;
      std::weak_ptr<ClientChannel> via;
    };
    std::map<uint64_t, SentAck> acks;  // epoch -> what we answered
  };
  auto ctl = std::make_shared<TransitionCtl>();
  std::weak_ptr<ClientChannelGroup> wgroup = group;
  std::weak_ptr<TransitionableConnection> wtconn = tconn;
  auto runtime = rt_;
  const bool multi_peer = peers.size() > 1;
  const std::string secret = cfg.attestation_secret;
  const std::string peer_host = accepts.front().host_id;
  group->set_transition_handler([wgroup, wtconn, runtime, ctl, multi_peer,
                                 secret, peer_host, liveness](
                                    const TransitionMsg& msg,
                                    const std::shared_ptr<ClientChannel>& via) {
    auto decline = [&](Errc e, const std::string& why) {
      TransitionAckMsg ack;
      ack.epoch = msg.epoch;
      ack.accepted = false;
      ack.errc = static_cast<uint8_t>(e);
      ack.reason = why;
      Bytes payload = encode_transition_ack(ack);
      (void)via->send_frame(MsgKind::transition_ack, msg.new_token, payload);
      std::lock_guard<std::mutex> lk(ctl->mu);
      ctl->acks[msg.epoch] = {std::move(payload), msg.new_token, via};
      ctl->in_progress.erase(msg.epoch);
    };
    {
      std::lock_guard<std::mutex> lk(ctl->mu);
      auto it = ctl->acks.find(msg.epoch);
      if (it != ctl->acks.end()) {
        // Retransmitted offer: our ack was lost. Resend it on the same
        // channel as the original so the server sees the same path.
        auto ch = it->second.via.lock();
        if (!ch) ch = via;
        (void)ch->send_frame(MsgKind::transition_ack, it->second.token,
                             it->second.payload);
        return;
      }
      if (msg.epoch <= ctl->current_epoch) return;  // stale
      if (!ctl->in_progress.insert(msg.epoch).second)
        return;  // a duplicate raced in while we're still staging
    }
    auto group = wgroup.lock();
    auto tconn = wtconn.lock();
    if (!group || !tconn) return;  // connection being torn down
    // The offer carries the connection's establishment-trace context, so
    // client-side staging + cutover land in the same trace as the
    // server's transition.offer span.
    Span tspan =
        trace_span(runtime->tracer(), "client.transition", msg.trace);
    tspan.tag_u64("epoch", msg.epoch);
    if (multi_peer) {
      decline(Errc::invalid_argument,
              "live transitions unsupported on multi-peer connections");
      return;
    }
    if (!secret.empty() &&
        msg.chain_digest != attest_chain(msg.chain, secret)) {
      decline(Errc::connection_failed, "chain attestation failed");
      return;
    }
    // Stage the new epoch's channel on the same port and peer; chunnels
    // in the new chain may rebase it (e.g. onto a unix socket).
    auto nch = group->add_channel(via->port(), {{via->peer0(), msg.new_token}});
    WrapContext ctx;
    ctx.role = Role::client;
    ctx.local_host_id = runtime->config().host_id;
    ctx.peer_host_id = peer_host;
    ctx.token = msg.new_token;
    ctx.transports = &runtime->transports();
    ctx.liveness = liveness;
    ctx.wheel = runtime->timer_wheel();
    std::weak_ptr<ClientChannel> wnch = nch;
    ctx.rebase = [wnch](TransportPtr nt, Addr np) -> Result<void> {
      auto conn = wnch.lock();
      if (!conn) return err(Errc::cancelled, "connection gone");
      return conn->rebase(std::move(nt), std::move(np));
    };
    auto stack = build_stack(*runtime, msg.chain, nch, ctx);
    if (!stack.ok()) {
      nch->close();
      decline(stack.error().code, stack.error().message);
      return;
    }
    auto cut = tconn->cutover(msg.epoch, std::move(stack).value(), msg.chain,
                              [](bool, uint64_t) {});
    if (!cut.ok()) {
      nch->close();
      decline(cut.error().code, cut.error().message);
      return;
    }
    // Ack travels the *new* channel: its source address teaches the
    // server the new epoch's reply path. The fin then half-closes the
    // old epoch (it trails all previously sent data, per-path FIFO).
    TransitionAckMsg ack;
    ack.epoch = msg.epoch;
    ack.accepted = true;
    Bytes payload = encode_transition_ack(ack);
    (void)nch->send_frame(MsgKind::transition_ack, msg.new_token, payload);
    via->send_fin(encode_transition_cancel({msg.epoch}));
    std::lock_guard<std::mutex> lk(ctl->mu);
    ctl->current_epoch = msg.epoch;
    ctl->acks[msg.epoch] = {std::move(payload), msg.new_token, nch};
    ctl->in_progress.erase(msg.epoch);
  });

  // Server-side rollback notice: the offer we (maybe) acked is dead.
  // Discard the cached ack — the server reuses the epoch number on its
  // next attempt, and a replayed stale ack would poison it — and, if we
  // already cut over, revert to the previous epoch's stack (still
  // draining, so it is intact).
  auto stats_sink = runtime->transitions().stats_sink();
  auto tracer = runtime->tracer();
  group->set_cancel_handler([wtconn, ctl, stats_sink, tracer](
                                const TransitionCancelMsg& msg,
                                const std::shared_ptr<ClientChannel>& via) {
    bool cut_over;
    {
      std::lock_guard<std::mutex> lk(ctl->mu);
      ctl->acks.erase(msg.epoch);
      ctl->in_progress.erase(msg.epoch);
      cut_over = ctl->current_epoch == msg.epoch;
    }
    if (!cut_over) return;  // declined or never staged: nothing to undo
    auto tc = wtconn.lock();
    if (!tc) return;
    Span rspan = trace_span(tracer, "client.revert", msg.trace);
    rspan.tag_u64("epoch", msg.epoch);
    auto r = tc->revert(msg.epoch);
    if (!r.ok()) {
      if (r.error().code == Errc::not_found) {
        // The old stack finished draining before the cancel arrived
        // (ack_timeout > drain_timeout): the epoch we're on is dead on
        // the server and the one we'd revert to is gone. Tear the
        // connection down now so the application re-establishes, instead
        // of parking until keepalive notices.
        BLOG(warn, "transition")
            << "cancel for epoch " << msg.epoch
            << " after drain completed; closing dead-epoch connection";
        rspan.tag("dead_epoch", "1");
        stats_sink->update([](TransitionStats& s) { s.dead_epoch_closes++; });
        tc->close();
        return;
      }
      BLOG(warn, "transition") << "cannot revert epoch " << msg.epoch << ": "
                               << r.error().to_string();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(ctl->mu);
      if (ctl->current_epoch == msg.epoch) ctl->current_epoch = tc->epoch();
    }
    // The old channel is current again; a future transition must be able
    // to half-close it. (via is null only when the cancel arrived on an
    // already-gone token, and that path cannot reach a successful revert.)
    if (via) via->clear_fin();
    stats_sink->update([](TransitionStats& s) { s.reverts++; });
    BLOG(info, "transition") << "reverted epoch " << msg.epoch
                             << " after server rollback";
  });

  return ConnPtr(std::move(tconn));
}

// --- stack construction ---

namespace {

// Child span per layer, recorded only while a path (or other ambient)
// span is active on this thread. SpanScope re-installs the hop's own
// context so nested hops chain parent -> child down the stack.
class HopTraceConnection final : public Connection {
 public:
  HopTraceConnection(ConnPtr inner, TracerPtr tracer, std::string hop,
                     HopLatencyStats::CellPtr cell)
      : inner_(std::move(inner)),
        tracer_(std::move(tracer)),
        cell_(std::move(cell)),
        send_name_("hop.send:" + hop),
        recv_name_("hop.recv:" + hop) {}

  Result<void> send(Msg m) override {
    if (!cell_) return send_spanned(std::move(m));
    Stopwatch sw;
    auto r = send_spanned(std::move(m));
    cell_->send_ns.record(elapsed_ns(sw));
    return r;
  }

  Result<void> send_batch(std::span<Msg> msgs) override {
    // One span / one histogram sample for the whole batch: per-datagram
    // timing inside a batched send is meaningless (the syscall is shared).
    if (!cell_) return send_batch_spanned(msgs);
    Stopwatch sw;
    auto r = send_batch_spanned(msgs);
    cell_->send_ns.record(elapsed_ns(sw));
    return r;
  }

  Result<Msg> recv(Deadline deadline) override {
    if (!cell_) return recv_spanned(deadline);
    Stopwatch sw;
    auto r = recv_spanned(deadline);
    cell_->recv_ns.record(elapsed_ns(sw));
    return r;
  }

  const Addr& local_addr() const override { return inner_->local_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }
  void close() override { inner_->close(); }

 private:
  Result<void> send_spanned(Msg m) {
    TraceContext ctx = current_trace_context();
    if (!ctx.valid()) return inner_->send(std::move(m));
    Span span = tracer_->span(send_name_, ctx);
    SpanScope scope(span);
    return inner_->send(std::move(m));
  }

  Result<void> send_batch_spanned(std::span<Msg> msgs) {
    TraceContext ctx = current_trace_context();
    if (!ctx.valid()) return inner_->send_batch(msgs);
    Span span = tracer_->span(send_name_, ctx);
    SpanScope scope(span);
    return inner_->send_batch(msgs);
  }

  Result<Msg> recv_spanned(Deadline deadline) {
    TraceContext ctx = current_trace_context();
    if (!ctx.valid()) return inner_->recv(deadline);
    Span span = tracer_->span(recv_name_, ctx);
    SpanScope scope(span);
    return inner_->recv(deadline);
  }

  static uint64_t elapsed_ns(const Stopwatch& sw) {
    return static_cast<uint64_t>(sw.elapsed().count());  // Duration is ns
  }

  ConnPtr inner_;
  TracerPtr tracer_;
  HopLatencyStats::CellPtr cell_;  // null: spans only, no histograms
  std::string send_name_;
  std::string recv_name_;
};

// Outermost wrapper: starts a sampled root span per message and makes it
// the ambient context, so every HopTraceConnection underneath records a
// child. Unsampled messages pay one thread-local countdown decrement.
class PathTraceConnection final : public Connection {
 public:
  PathTraceConnection(ConnPtr inner, TracerPtr tracer)
      : inner_(std::move(inner)), tracer_(std::move(tracer)) {}

  Result<void> send(Msg m) override {
    if (!tracer_->sample_path()) return inner_->send(std::move(m));
    Span span = tracer_->span("path.send", current_trace_context());
    span.tag_u64("bytes", m.payload.size());
    SpanScope scope(span);
    return inner_->send(std::move(m));
  }

  Result<void> send_batch(std::span<Msg> msgs) override {
    if (!tracer_->sample_path()) return inner_->send_batch(msgs);
    Span span = tracer_->span("path.send", current_trace_context());
    size_t bytes = 0;
    for (const Msg& m : msgs) bytes += m.payload.size();
    span.tag_u64("bytes", bytes);
    span.tag_u64("batch", msgs.size());
    SpanScope scope(span);
    return inner_->send_batch(msgs);
  }

  Result<Msg> recv(Deadline deadline) override {
    if (!tracer_->sample_path()) return inner_->recv(deadline);
    Span span = tracer_->span("path.recv", current_trace_context());
    SpanScope scope(span);
    auto r = inner_->recv(deadline);
    if (r.ok()) span.tag_u64("bytes", r.value().payload.size());
    return r;
  }

  const Addr& local_addr() const override { return inner_->local_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }
  void close() override { inner_->close(); }

 private:
  ConnPtr inner_;
  TracerPtr tracer_;
};

}  // namespace

ConnPtr wrap_hop_trace(ConnPtr inner, TracerPtr tracer, std::string hop_name,
                       HopLatencyStats::CellPtr cell) {
  return ConnPtr(std::make_shared<HopTraceConnection>(
      std::move(inner), std::move(tracer), std::move(hop_name),
      std::move(cell)));
}

ConnPtr wrap_path_trace(ConnPtr inner, TracerPtr tracer) {
  return ConnPtr(
      std::make_shared<PathTraceConnection>(std::move(inner), std::move(tracer)));
}

Result<ConnPtr> build_stack(Runtime& rt,
                            const std::vector<NegotiatedNode>& chain,
                            ConnPtr base, WrapContext base_ctx) {
  const TracerPtr& tracer = rt.tracer();
  const bool tracing = tracer && tracer->enabled();
  ConnPtr conn = std::move(base);
  // chain[0] is outermost: wrap from the inside out.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    auto impl_r = rt.registry().lookup(it->type, it->impl_name);
    if (!impl_r.ok()) {
      // No local factory: this side is a passthrough for the node (the
      // work happens at the peer or in the network).
      BLOG(debug, "stack") << "no local factory for " << it->impl_name
                           << "; passthrough";
      continue;
    }
    WrapContext ctx = base_ctx;
    ctx.args = it->args;
    BERTHA_TRY_ASSIGN(wrapped, impl_r.value()->wrap(std::move(conn), ctx));
    conn = std::move(wrapped);
    // Per-hop timing wrapper: each chunnel becomes a child span of the
    // message's path span, and every message (sampled or not) feeds the
    // streaming hop histograms. Inserted only when tracing is on at build
    // time, so a disabled tracer adds zero indirection to the data path.
    if (tracing)
      conn = wrap_hop_trace(std::move(conn), tracer, it->impl_name,
                            rt.hop_stats()->cell(it->impl_name));
  }
  if (tracing && !chain.empty()) conn = wrap_path_trace(std::move(conn), tracer);
  return conn;
}

}  // namespace bertha
