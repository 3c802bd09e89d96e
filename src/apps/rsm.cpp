#include "apps/rsm.hpp"

#include "apps/kvserver.hpp"
#include "util/log.hpp"

namespace bertha {

// --- SequencedApplyWindow ---

std::vector<std::pair<uint64_t, Bytes>> SequencedApplyWindow::offer(
    uint64_t seq, Bytes item) {
  if (seq < next_ || holdback_.count(seq)) return {};  // dup
  holdback_.emplace(seq, std::move(item));
  return drain();
}

std::vector<std::pair<uint64_t, Bytes>> SequencedApplyWindow::skip_to(
    uint64_t up_to) {
  if (up_to > next_) {
    next_ = up_to;
    holdback_.erase(holdback_.begin(), holdback_.lower_bound(up_to));
  }
  return drain();
}

std::vector<std::pair<uint64_t, Bytes>> SequencedApplyWindow::drain() {
  std::vector<std::pair<uint64_t, Bytes>> out;
  while (!holdback_.empty() && holdback_.begin()->first == next_) {
    out.emplace_back(next_, std::move(holdback_.begin()->second));
    holdback_.erase(holdback_.begin());
    next_++;
  }
  return out;
}

Result<std::unique_ptr<RsmReplica>> RsmReplica::start(RsmReplicaConfig cfg) {
  if (!cfg.rt) return err(Errc::invalid_argument, "RsmReplica needs a runtime");
  ChunnelArgs args = cfg.extra_mcast_args;
  args.set("member_addr", cfg.member_addr.to_string());
  if (!cfg.group.empty()) args.set("instance", cfg.group);
  BERTHA_TRY_ASSIGN(ep, cfg.rt->endpoint("rsm-replica",
                                         wrap(ChunnelSpec("ordered_mcast",
                                                          std::move(args)))));
  BERTHA_TRY_ASSIGN(listener, ep.listen(cfg.listen_addr));
  return std::unique_ptr<RsmReplica>(
      new RsmReplica(std::move(cfg), std::move(listener)));
}

RsmReplica::RsmReplica(RsmReplicaConfig cfg, std::unique_ptr<Listener> listener)
    : cfg_(std::move(cfg)), listener_(std::move(listener)) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

RsmReplica::~RsmReplica() { stop(); }

const Addr& RsmReplica::control_addr() const { return listener_->addr(); }

void RsmReplica::stop() {
  if (stopping_.exchange(true)) return;
  listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  std::vector<ConnPtr> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    threads.swap(threads_);
    conns.swap(conns_);
  }
  for (auto& c : conns) c->close();  // unblocks the drain threads
  for (auto& t : threads)
    if (t.joinable()) t.join();
}

void RsmReplica::accept_loop() {
  for (;;) {
    auto conn_r = listener_->accept();
    if (!conn_r.ok()) return;  // closed
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_.load()) {
      conn_r.value()->close();
      return;
    }
    ConnPtr conn = std::move(conn_r).value();
    conns_.push_back(conn);
    threads_.emplace_back([this, conn] { drain(conn); });
  }
}

void RsmReplica::drain(ConnPtr conn) {
  // All connections at this replica share one globally-ordered stream;
  // each operation is drained (and applied) exactly once, by whichever
  // drainer pops it. Popping and applying are one step under apply_mu_:
  // otherwise two drainers could apply consecutive operations in the
  // opposite order, and replicas would diverge. The bounded recv lets
  // the other drainers take their turn.
  for (;;) {
    std::lock_guard<std::mutex> lk(apply_mu_);
    auto msg_r = conn->recv(Deadline::after(ms(50)));
    if (!msg_r.ok()) {
      if (msg_r.error().code == Errc::timed_out) continue;
      return;
    }
    const Msg& msg = msg_r.value();
    auto op_r = decode_kv_request(msg.payload);
    if (!op_r.ok()) {
      BLOG(debug, "rsm") << "bad op: " << op_r.error().to_string();
      continue;
    }
    KvResponse rsp = apply_kv_request(store_, op_r.value());
    applied_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.replier) {
      Msg reply;
      reply.dst = msg.src;  // the client's reply address
      reply.payload = encode_kv_response(rsp);
      (void)conn->send(std::move(reply));
    }
  }
}

Result<std::unique_ptr<RsmClient>> RsmClient::connect(
    std::shared_ptr<Runtime> rt, const std::vector<Addr>& replicas,
    Deadline deadline) {
  // Listing 5 pattern: the client specifies no chunnels; the replicas'
  // DAG (ordered_mcast) governs.
  BERTHA_TRY_ASSIGN(ep, rt->endpoint("rsm-client", ChunnelDag::empty()));
  BERTHA_TRY_ASSIGN(conn, ep.connect(replicas, deadline));
  return std::unique_ptr<RsmClient>(new RsmClient(std::move(conn)));
}

Result<KvResponse> RsmClient::execute(const KvRequest& op, Deadline deadline) {
  Msg m;
  m.payload = encode_kv_request(op);
  BERTHA_TRY(conn_->send(std::move(m)));
  for (;;) {
    BERTHA_TRY_ASSIGN(reply, conn_->recv(deadline));
    auto rsp = decode_kv_response(reply.payload);
    if (!rsp.ok()) continue;  // stray datagram
    if (rsp.value().id != op.id) continue;  // stale reply
    return rsp;
  }
}

}  // namespace bertha
