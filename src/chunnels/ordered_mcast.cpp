#include "chunnels/ordered_mcast.hpp"

#include <algorithm>
#include <map>

#include "io/reactor.hpp"
#include "serialize/codec.hpp"
#include "util/log.hpp"

namespace bertha {

// --- framing ---

Bytes mcast_frame(const Addr& reply_to, BytesView op) {
  Writer w;
  w.put_u8('M');
  w.put_u8('1');
  w.put_string(reply_to.to_string());
  w.put_raw(op);
  return std::move(w).take();
}

Result<std::pair<Addr, BytesView>> parse_mcast_frame(BytesView datagram) {
  Reader r(datagram);
  BERTHA_TRY_ASSIGN(m0, r.get_u8());
  BERTHA_TRY_ASSIGN(m1, r.get_u8());
  if (m0 != 'M' || m1 != '1')
    return err(Errc::protocol_error, "bad mcast frame magic");
  BERTHA_TRY_ASSIGN(uri, r.get_string());
  BERTHA_TRY_ASSIGN(reply, Addr::parse(uri));
  return std::pair<Addr, BytesView>(std::move(reply), r.rest());
}

Result<McastOp> parse_sequenced_mcast(BytesView datagram) {
  if (datagram.size() < 8)
    return err(Errc::protocol_error, "short sequenced mcast datagram");
  McastOp op;
  uint64_t stamp = get_u64_le(datagram, 0);
  op.seq = stamp & kMcastSeqMask;
  op.view = static_cast<uint32_t>(stamp >> kMcastSeqBits);
  BERTHA_TRY_ASSIGN(frame, parse_mcast_frame(datagram.subspan(8)));
  op.reply_to = std::move(frame.first);
  op.payload = frame.second;
  return op;
}

Bytes mcast_fetch_frame(const Addr& reply_to, uint64_t from, uint64_t to) {
  Writer w;
  w.put_u8('M');
  w.put_u8('F');
  w.put_string(reply_to.to_string());
  w.put_varint(from);
  w.put_varint(to);
  return std::move(w).take();
}

Result<McastFetch> parse_mcast_fetch(BytesView datagram) {
  Reader r(datagram);
  BERTHA_TRY_ASSIGN(m0, r.get_u8());
  BERTHA_TRY_ASSIGN(m1, r.get_u8());
  if (m0 != 'M' || m1 != 'F')
    return err(Errc::protocol_error, "bad mcast fetch magic");
  BERTHA_TRY_ASSIGN(uri, r.get_string());
  BERTHA_TRY_ASSIGN(reply, Addr::parse(uri));
  McastFetch f;
  f.reply_to = std::move(reply);
  BERTHA_TRY_ASSIGN(from, r.get_varint());
  BERTHA_TRY_ASSIGN(to, r.get_varint());
  f.from = from;
  f.to = to;
  if (f.to < f.from) return err(Errc::protocol_error, "inverted fetch range");
  return f;
}

Bytes mcast_fetch_miss_frame(uint32_t view, uint64_t from, uint64_t to) {
  Writer w;
  w.put_u8('M');
  w.put_u8('X');
  w.put_varint(view);
  w.put_varint(from);
  w.put_varint(to);
  return std::move(w).take();
}

Result<McastFetchMiss> parse_mcast_fetch_miss(BytesView datagram) {
  Reader r(datagram);
  BERTHA_TRY_ASSIGN(m0, r.get_u8());
  BERTHA_TRY_ASSIGN(m1, r.get_u8());
  if (m0 != 'M' || m1 != 'X')
    return err(Errc::protocol_error, "bad mcast fetch-miss magic");
  McastFetchMiss m;
  BERTHA_TRY_ASSIGN(view, r.get_varint());
  if (view > 0xffff) return err(Errc::protocol_error, "fetch-miss view range");
  m.view = static_cast<uint32_t>(view);
  BERTHA_TRY_ASSIGN(from, r.get_varint());
  BERTHA_TRY_ASSIGN(to, r.get_varint());
  m.from = from;
  m.to = to;
  if (m.to < m.from)
    return err(Errc::protocol_error, "inverted fetch-miss range");
  if (!r.at_end())
    return err(Errc::protocol_error, "trailing bytes after fetch-miss");
  return m;
}

Bytes mcast_view_start_frame(uint32_t view, uint64_t start_seq) {
  Writer w;
  w.put_u8('M');
  w.put_u8('S');
  w.put_varint(view);
  w.put_varint(start_seq);
  return std::move(w).take();
}

Result<McastViewStart> parse_mcast_view_start(BytesView datagram) {
  Reader r(datagram);
  BERTHA_TRY_ASSIGN(m0, r.get_u8());
  BERTHA_TRY_ASSIGN(m1, r.get_u8());
  if (m0 != 'M' || m1 != 'S')
    return err(Errc::protocol_error, "bad mcast view-start magic");
  McastViewStart vs;
  BERTHA_TRY_ASSIGN(view, r.get_varint());
  if (view == 0 || view > 0xffff)
    return err(Errc::protocol_error, "view-start view range");
  vs.view = static_cast<uint32_t>(view);
  BERTHA_TRY_ASSIGN(start, r.get_varint());
  if (start > kMcastSeqMask)
    return err(Errc::protocol_error, "view-start seq range");
  vs.start_seq = start;
  if (!r.at_end())
    return err(Errc::protocol_error, "trailing bytes after view-start");
  return vs;
}

// --- replica-side shared state ---

class McastReplicaState {
 public:
  McastReplicaState(std::shared_ptr<Transport> transport, Duration gap_timeout)
      : transport_(std::move(transport)),
        gap_timeout_(gap_timeout),
        ordered_(65536) {}

  // Starts the pump; fails if the transport cannot join process_reactor().
  Result<void> start() {
    auto pump = each_payload([this](BytesView d) { on_datagram(d); });
    BERTHA_TRY_ASSIGN(id, process_reactor().add(transport_, std::move(pump)));
    reactor_id_ = id;
    return ok();
  }

  ~McastReplicaState() {
    process_reactor().remove(reactor_id_);
    gate_.close();
    transport_->close();
    ordered_.close();
  }

  Result<Msg> next(Deadline deadline) { return ordered_.pop(deadline); }

  Result<void> reply(const Addr& to, BytesView payload) {
    return transport_->send_to(to, payload);
  }

  const Addr& member_addr() const { return transport_->local_addr(); }
  uint64_t gaps() const { return gaps_.load(std::memory_order_relaxed); }

 private:
  // The pump: one sequenced datagram, held back until it is next in the
  // global order.
  void on_datagram(BytesView datagram) {
    auto op_r = parse_sequenced_mcast(datagram);
    if (!op_r.ok()) return;
    const McastOp& op = op_r.value();
    std::lock_guard<std::mutex> lk(mu_);
    if (op.seq < next_seq_ || holdback_.count(op.seq)) return;  // dup
    Msg m;
    m.src = op.reply_to;
    m.dst = member_addr();
    m.payload.assign(op.payload.begin(), op.payload.end());
    bool new_gap = holdback_.empty();
    holdback_.emplace(op.seq, std::move(m));
    release_locked(new_gap);
  }

  // Delivers the holdback's contiguous head. A gap left behind it ages
  // out gap_timeout_ after it opened or last moved: each such moment
  // arms one process_wheel() entry.
  void release_locked(bool moved) {
    while (!holdback_.empty() && holdback_.begin()->first == next_seq_) {
      (void)ordered_.push(std::move(holdback_.begin()->second));
      holdback_.erase(holdback_.begin());
      next_seq_++;
      moved = true;
    }
    if (holdback_.empty() || !moved) return;
    gap_since_ = now();
    process_wheel()->schedule(gap_timeout_, gate_.wrap([this] { age_out(); }));
  }

  void age_out() {
    std::lock_guard<std::mutex> lk(mu_);
    // Filled, or it moved since this entry was armed (a later one is).
    if (holdback_.empty() || now() < gap_since_ + gap_timeout_) return;
    // Head-of-line gap aged out: skip it (recovery would run here).
    gaps_.fetch_add(holdback_.begin()->first - next_seq_,
                    std::memory_order_relaxed);
    next_seq_ = holdback_.begin()->first;
    release_locked(true);
  }

  std::shared_ptr<Transport> transport_;
  Duration gap_timeout_;
  BlockingQueue<Msg> ordered_;
  std::atomic<uint64_t> gaps_{0};
  std::mutex mu_;  // the pump's state below, shared with age_out()
  std::map<uint64_t, Msg> holdback_;
  uint64_t next_seq_ = 0;
  TimePoint gap_since_;  // when the head-of-line gap opened or last moved
  TimerGate gate_;  // gap entries, on process_wheel()
  uint64_t reactor_id_ = 0;  // process_reactor() registration
};

namespace {

// Replica-facing connection: recv() = next globally-ordered op, send()
// = direct reply to a client.
class McastReplicaConnection final : public Connection {
 public:
  McastReplicaConnection(ConnPtr inner, std::shared_ptr<McastReplicaState> st)
      : inner_(std::move(inner)), st_(std::move(st)) {}

  Result<void> send(Msg m) override {
    if (!m.dst.valid())
      return err(Errc::invalid_argument,
                 "mcast replica reply needs dst (the request's src)");
    return st_->reply(m.dst, m.payload);
  }

  Result<Msg> recv(Deadline deadline) override {
    // The ordered stream is shared with sibling connections, so closing
    // this connection must not close the stream; instead we poll in
    // short slices so close() can interrupt a blocked reader.
    for (;;) {
      if (closed_.load(std::memory_order_acquire))
        return err(Errc::cancelled, "connection closed");
      Deadline slice = Deadline::after(ms(50));
      if (!deadline.is_never() &&
          deadline.as_time_point() < slice.as_time_point())
        slice = deadline;
      auto m = st_->next(slice);
      if (m.ok()) return m;
      if (m.error().code != Errc::timed_out) return m;  // stream closed
      if (deadline.expired()) return m;                 // caller's deadline
    }
  }

  const Addr& local_addr() const override { return st_->member_addr(); }
  const Addr& peer_addr() const override { return inner_->peer_addr(); }

  void close() override {
    closed_.store(true, std::memory_order_release);
    inner_->close();  // the shared state outlives this connection
  }

 private:
  ConnPtr inner_;
  std::shared_ptr<McastReplicaState> st_;
  std::atomic<bool> closed_{false};
};

// Client-facing connection: send() multicasts via the sequenced target,
// recv() collects replica replies on a private transport.
class McastClientConnection final : public Connection {
 public:
  McastClientConnection(ConnPtr inner, TransportPtr transport, Addr target)
      : inner_(std::move(inner)),
        transport_(std::move(transport)),
        target_(std::move(target)),
        local_(transport_->local_addr()) {}

  ~McastClientConnection() override { close(); }

  Result<void> send(Msg m) override {
    Bytes framed = mcast_frame(local_, m.payload);
    return transport_->send_to(target_, framed);
  }

  Result<Msg> recv(Deadline deadline) override {
    BERTHA_TRY_ASSIGN(pkt, transport_->recv(deadline));
    Msg m;
    m.src = std::move(pkt.src);
    m.dst = local_;
    m.payload = std::move(pkt.payload);
    return m;
  }

  const Addr& local_addr() const override { return local_; }
  const Addr& peer_addr() const override { return target_; }

  void close() override {
    transport_->close();
    inner_->close();
  }

 private:
  ConnPtr inner_;
  TransportPtr transport_;
  Addr target_;
  Addr local_;
};

}  // namespace

// --- chunnel base ---

OrderedMcastChunnelBase::~OrderedMcastChunnelBase() { teardown(); }

namespace {

// Replica states are shared *across* implementation instances: the
// switch and software impls of the same listener must use one member
// transport (only one bind of the member address can exist). Keyed by
// member address; weak so states die with their last listener.
std::mutex g_replica_mu;
std::map<std::string, std::weak_ptr<McastReplicaState>> g_replica_states;

Result<std::shared_ptr<McastReplicaState>> shared_replica_state(
    const Addr& member_addr, TransportFactory& transports, Duration gap) {
  std::lock_guard<std::mutex> lk(g_replica_mu);
  std::string key = member_addr.to_string();
  if (auto it = g_replica_states.find(key); it != g_replica_states.end()) {
    if (auto live = it->second.lock()) return live;
    g_replica_states.erase(it);
  }
  BERTHA_TRY_ASSIGN(t, transports.bind(member_addr));
  auto st = std::make_shared<McastReplicaState>(
      std::shared_ptr<Transport>(std::move(t)), gap);
  BERTHA_TRY(st->start());
  g_replica_states[key] = st;
  return st;
}

}  // namespace

Result<void> OrderedMcastChunnelBase::on_listen(ListenContext& ctx) {
  // Each replica binds its member address (provided by the application
  // in the DAG args, as each replica knows which group member it is).
  BERTHA_TRY_ASSIGN(member_uri, ctx.app_args.get("member_addr"));
  BERTHA_TRY_ASSIGN(member_addr, Addr::parse(member_uri));

  auto gap_us = ctx.app_args.get_u64_or("gap_timeout_us", 20000);
  BERTHA_TRY_ASSIGN(st,
                    shared_replica_state(member_addr, *ctx.transports,
                                         us(static_cast<int64_t>(gap_us))));
  std::lock_guard<std::mutex> lk(mu_);
  replicas_[ctx.listen_addr.to_string()] = std::move(st);
  return ok();
}

Result<ConnPtr> OrderedMcastChunnelBase::wrap(ConnPtr inner, WrapContext& ctx) {
  if (ctx.role == Role::server) {
    std::shared_ptr<McastReplicaState> st;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = replicas_.find(ctx.listen_addr.to_string());
      if (it != replicas_.end()) st = it->second;
    }
    if (!st)
      return err(Errc::internal,
                 "ordered_mcast: no replica state for this listener");
    return ConnPtr(
        std::make_shared<McastReplicaConnection>(std::move(inner), st));
  }

  // Client: send sequenced operations toward the negotiated target.
  BERTHA_TRY_ASSIGN(target_uri, ctx.args.get(target_arg_));
  BERTHA_TRY_ASSIGN(target, Addr::parse(target_uri));
  BERTHA_TRY_ASSIGN(
      t, ctx.transports->bind(ephemeral_like(target, ctx.local_host_id)));
  return ConnPtr(std::make_shared<McastClientConnection>(
      std::move(inner), std::move(t), std::move(target)));
}

void OrderedMcastChunnelBase::teardown() {
  // States are shared with the sibling implementation (and with live
  // connections); dropping our references stops each state when its
  // last owner goes away (~McastReplicaState retires its pump).
  std::lock_guard<std::mutex> lk(mu_);
  replicas_.clear();
}

uint64_t OrderedMcastChunnelBase::gaps_skipped() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, st] : replicas_) total += st->gaps();
  return total;
}

SwitchOrderedMcastChunnel::SwitchOrderedMcastChunnel()
    : OrderedMcastChunnelBase("group_addr") {
  info_.type = "ordered_mcast";
  info_.name = "ordered_mcast/switch";
  info_.scope = Scope::rack;
  info_.endpoints = EndpointConstraint::server;
  info_.priority = 20;
  // Instantiation code only: usable when a switch advertises a group.
  info_.factory_only = true;
}

SoftwareOrderedMcastChunnel::SoftwareOrderedMcastChunnel()
    : OrderedMcastChunnelBase("sequencer_addr") {
  info_.type = "ordered_mcast";
  info_.name = "ordered_mcast/software";
  info_.scope = Scope::global;
  info_.endpoints = EndpointConstraint::server;
  info_.priority = 5;
  // Usable only against a running, discovery-advertised sequencer.
  info_.factory_only = true;
  // Offload synthesis (src/synth/): the sequencing duty can move into a
  // switch sequencer slot (stamp + forward to the group).
  info_.props["synth.pattern"] = "mcast_seq";
}

// --- software sequencer ---

SoftwareSequencer::SoftwareSequencer(std::shared_ptr<Transport> t,
                                     std::vector<Addr> members,
                                     size_t retransmit_window, uint32_t view,
                                     bool standby)
    : transport_(std::move(t)),
      addr_(transport_->local_addr()),
      members_(std::move(members)),
      window_(retransmit_window) {
  view_.store(view, std::memory_order_release);
  active_.store(!standby, std::memory_order_release);
}

void SoftwareSequencer::stamp_and_send(BytesView frame) {
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Bytes stamped;
  stamped.reserve(8 + frame.size());
  put_u64_le(stamped, mcast_stamp(view_.load(std::memory_order_relaxed), seq));
  append(stamped, frame);
  std::vector<Addr> members;
  {
    std::lock_guard<std::mutex> lk(members_mu_);
    members = members_;
  }
  for (const auto& m : members) (void)transport_->send_to(m, stamped);
  if (window_ != 0) {
    log_.push_back(std::move(stamped));
    while (log_.size() > window_) {
      log_.pop_front();
      log_base_++;
    }
  }
  count_.fetch_add(1, std::memory_order_relaxed);
}

void SoftwareSequencer::on_datagram(BytesView pkt) {
  if (auto vs_r = parse_mcast_view_start(pkt); vs_r.ok()) {
    // Election result. Activation is idempotent and only moves forward:
    // a standby wakes at the elected view, an active sequencer re-elected
    // at a higher view (candidate-list wrap-around) adopts it. The old
    // log is from a dead view — drop it and resume the seq chain at the
    // quorum's agreed point.
    const McastViewStart& vs = vs_r.value();
    uint32_t cur = view_.load(std::memory_order_relaxed);
    bool adopt = vs.view > cur ||
                 (vs.view == cur && !active_.load(std::memory_order_relaxed));
    if (!adopt) return;
    view_.store(vs.view, std::memory_order_release);
    uint64_t ns =
        std::max(next_seq_.load(std::memory_order_relaxed), vs.start_seq);
    next_seq_.store(ns, std::memory_order_relaxed);
    log_.clear();
    log_base_ = ns;
    active_.store(true, std::memory_order_release);
    // Announce the view with a stamped no-op so replicas adopt it (and
    // re-propose in-flight ops) even before any client op reaches us.
    stamp_and_send(mcast_frame(addr_, BytesView{}));
    return;
  }
  if (!active_.load(std::memory_order_relaxed)) return;  // standby
  if (window_ != 0) {
    if (auto fetch_r = parse_mcast_fetch(pkt); fetch_r.ok()) {
      // A replica saw a gap; re-send what the log still covers. For the
      // prefix already pruned from the log, answer with a miss frame —
      // the replica catches up from a peer snapshot instead of skipping.
      // Seqs beyond the log's head have simply not been stamped yet and
      // are not a miss.
      const McastFetch& f = fetch_r.value();
      if (f.from < log_base_) {
        (void)transport_->send_to(
            f.reply_to,
            mcast_fetch_miss_frame(view_.load(std::memory_order_relaxed),
                                   f.from, std::min(f.to, log_base_)));
      }
      uint64_t from = std::max(f.from, log_base_);
      uint64_t to = std::min(f.to, log_base_ + log_.size());
      for (uint64_t s = from; s < to; s++) {
        (void)transport_->send_to(f.reply_to, log_[s - log_base_]);
        retransmits_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
  }
  // Validate before stamping; non-mcast datagrams are dropped.
  if (!parse_mcast_frame(pkt).ok()) return;
  stamp_and_send(pkt);
}

void SoftwareSequencer::update_members(std::vector<Addr> members) {
  std::lock_guard<std::mutex> lk(members_mu_);
  members_ = std::move(members);
}

Result<std::unique_ptr<SoftwareSequencer>> SoftwareSequencer::start(
    TransportFactory& factory, const Addr& bind_addr,
    std::vector<Addr> members, size_t retransmit_window, uint32_t view,
    bool standby) {
  BERTHA_TRY_ASSIGN(t, factory.bind(bind_addr));
  return start_with(std::shared_ptr<Transport>(std::move(t)),
                    std::move(members), retransmit_window, view, standby);
}

Result<std::unique_ptr<SoftwareSequencer>> SoftwareSequencer::start_with(
    std::shared_ptr<Transport> transport, std::vector<Addr> members,
    size_t retransmit_window, uint32_t view, bool standby) {
  if (!transport) return err(Errc::invalid_argument, "null transport");
  if (members.empty())
    return err(Errc::invalid_argument, "sequencer needs members");
  std::unique_ptr<SoftwareSequencer> seq(
      new SoftwareSequencer(std::move(transport), std::move(members),
                            retransmit_window, view, standby));
  auto* raw = seq.get();
  auto stamp = each_payload([raw](BytesView d) { raw->on_datagram(d); });
  BERTHA_TRY_ASSIGN(id, process_reactor().add(seq->transport_, stamp));
  seq->reactor_id_ = id;
  return seq;
}

SoftwareSequencer::~SoftwareSequencer() { stop(); }

void SoftwareSequencer::stop() {
  process_reactor().remove(reactor_id_);
  transport_->close();
}

Result<void> SoftwareSequencer::register_with(DiscoveryClient& discovery,
                                              const std::string& instance) {
  ImplInfo info;
  info.type = "ordered_mcast";
  info.name = "ordered_mcast/software:" + addr_.to_string();
  info.scope = Scope::global;
  info.endpoints = EndpointConstraint::server;
  info.priority = 5;
  info.props["sequencer_addr"] = addr_.to_string();
  info.props["sequencer"] = "software";
  info.props["instance"] = instance;
  info.props["synth.pattern"] = "mcast_seq";
  return discovery.register_impl(info);
}

}  // namespace bertha
