#include "net/simnet.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace bertha {

std::shared_ptr<SimNet> SimNet::create(Config cfg) {
  auto net = std::shared_ptr<SimNet>(new SimNet(cfg));
  net->delivery_thread_ = std::thread([net] { net->delivery_loop(); });
  return net;
}

SimNet::SimNet(Config cfg) : cfg_(cfg), rng_(cfg.seed) {}

SimNet::~SimNet() { shutdown(); }

void SimNet::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
  close_all();
}

Result<TransportPtr> SimNet::attach(const std::string& node, uint16_t port) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return err(Errc::cancelled, "simnet shut down");
  return bind_queue(Addr::sim(node, port), cfg_.queue_depth);
}

void SimNet::set_link(const std::string& a, const std::string& b,
                      Duration latency, double loss) {
  std::lock_guard<std::mutex> lk(mu_);
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  links_[key] = {latency, loss};
}

void SimNet::set_local_latency(Duration d) {
  std::lock_guard<std::mutex> lk(mu_);
  local_latency_ = d;
}

std::pair<Duration, double> SimNet::link_params(const std::string& a,
                                                const std::string& b) const {
  if (a == b) return {local_latency_, 0.0};
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  auto it = links_.find(key);
  if (it != links_.end()) return it->second;
  return {cfg_.default_latency, cfg_.default_loss};
}

Result<void> SimNet::create_group(const std::string& group, uint16_t port,
                                  std::vector<Addr> members, bool hw_sequencer,
                                  uint64_t initial_seq) {
  std::lock_guard<std::mutex> lk(mu_);
  Addr gaddr = Addr::sim(group, port);
  if (groups_.count(gaddr))
    return err(Errc::already_exists, "group exists: " + gaddr.to_string());
  for (const auto& m : members) {
    if (m.kind != AddrKind::sim)
      return err(Errc::invalid_argument,
                 "group member must be a sim addr: " + m.to_string());
  }
  Group g;
  g.members = std::move(members);
  g.hw_sequencer = hw_sequencer;
  g.next_seq = initial_seq;
  groups_[gaddr] = std::move(g);
  return ok();
}

void SimNet::remove_group(const std::string& group, uint16_t port) {
  std::lock_guard<std::mutex> lk(mu_);
  groups_.erase(Addr::sim(group, port));
}

Result<void> SimNet::install_program(
    const Addr& vip, std::function<Result<ProgramAction>(BytesView)> act) {
  if (vip.kind != AddrKind::sim)
    return err(Errc::invalid_argument, "program vip must be a sim addr");
  if (!act) return err(Errc::invalid_argument, "null steering program");
  std::lock_guard<std::mutex> lk(mu_);
  if (programs_.count(vip))
    return err(Errc::already_exists, "program exists at " + vip.to_string());
  programs_[vip] = Program{std::move(act), 0};
  return ok();
}

Result<void> SimNet::install_program(
    const Addr& vip, std::function<Result<Addr>(BytesView)> steer) {
  if (!steer) return err(Errc::invalid_argument, "null steering program");
  return install_program(
      vip, std::function<Result<ProgramAction>(BytesView)>(
               [steer = std::move(steer)](BytesView b) -> Result<ProgramAction> {
                 BERTHA_TRY_ASSIGN(dst, steer(b));
                 ProgramAction a;
                 a.dst = std::move(dst);
                 return a;
               }));
}

void SimNet::remove_program(const Addr& vip) {
  std::lock_guard<std::mutex> lk(mu_);
  programs_.erase(vip);
}

uint64_t SimNet::program_hits(const Addr& vip) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = programs_.find(vip);
  return it == programs_.end() ? 0 : it->second.hits;
}

Result<void> SimNet::advertise(const Addr& service, const Addr& target,
                               uint32_t metric) {
  if (service.kind != AddrKind::sim || target.kind != AddrKind::sim)
    return err(Errc::invalid_argument, "anycast requires sim addrs");
  std::lock_guard<std::mutex> lk(mu_);
  auto& entries = anycast_[service];
  for (auto& e : entries) {
    if (e.target == target) {
      e.metric = metric;
      return ok();
    }
  }
  entries.push_back({target, metric});
  return ok();
}

void SimNet::withdraw(const Addr& service, const Addr& target) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = anycast_.find(service);
  if (it == anycast_.end()) return;
  auto& v = it->second;
  v.erase(std::remove_if(v.begin(), v.end(),
                         [&](const AnycastEntry& e) { return e.target == target; }),
          v.end());
  if (v.empty()) anycast_.erase(it);
}

Result<Addr> SimNet::resolve_anycast(const Addr& service) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = anycast_.find(service);
  if (it == anycast_.end() || it->second.empty())
    return err(Errc::not_found, "no advertiser for " + service.to_string());
  const AnycastEntry* best = &it->second.front();
  for (const auto& e : it->second)
    if (e.metric < best->metric) best = &e;
  return best->target;
}

Result<void> SimNet::send(const Addr& from, const Addr& to, BytesView payload) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return err(Errc::cancelled, "simnet shut down");

  // Match-action program: the "switch" steers (and possibly rewrites)
  // the packet in transit.
  Addr dst = to;
  Bytes rewritten;
  if (auto pit = programs_.find(dst); pit != programs_.end()) {
    auto acted = pit->second.act(payload);
    if (!acted.ok()) {
      dropped_++;  // the program rejected the packet (table miss / dup)
      return ok();
    }
    pit->second.hits++;
    ProgramAction a = std::move(acted).value();
    dst = std::move(a.dst);
    if (a.rewrite) {
      rewritten = std::move(a.payload);
      payload = BytesView(rewritten);
    }
  }

  // Anycast: rewrite destination to the nearest advertiser.
  if (auto ait = anycast_.find(dst); ait != anycast_.end() && !ait->second.empty()) {
    const AnycastEntry* best = &ait->second.front();
    for (const auto& e : ait->second)
      if (e.metric < best->metric) best = &e;
    dst = best->target;
  }

  // Multicast group: fan out, stamping a sequence number when the group
  // has a hardware sequencer ("in the switch", so no extra hop).
  if (auto git = groups_.find(dst); git != groups_.end()) {
    Group& g = git->second;
    Bytes stamped;
    if (g.hw_sequencer) {
      stamped.reserve(payload.size() + 8);
      put_u64_le(stamped, g.next_seq++);
      append(stamped, payload);
    }
    for (const auto& m : g.members)
      enqueue_delivery(from, m,
                       g.hw_sequencer ? stamped
                                      : Bytes(payload.begin(), payload.end()));
    return ok();
  }

  enqueue_delivery(from, dst, Bytes(payload.begin(), payload.end()));
  return ok();
}

void SimNet::enqueue_delivery(const Addr& from, const Addr& to, Bytes payload) {
  auto [latency, loss] = link_params(from.host, to.host);
  if (loss > 0 && rng_.chance(loss)) {
    dropped_++;
    return;
  }
  Event ev;
  ev.due = now() + latency;
  ev.dst = to;
  ev.pkt.src = from;
  ev.pkt.payload = std::move(payload);
  events_.push(std::move(ev));
  cv_.notify_one();
}

void SimNet::delivery_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stopping_) {
    if (events_.empty()) {
      cv_.wait(lk);
      continue;
    }
    TimePoint due = events_.top().due;
    if (now() < due) {
      cv_.wait_until(lk, due);
      continue;
    }
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    lk.unlock();
    deliver(ev.dst, std::move(ev.pkt));
    lk.lock();
  }
}

}  // namespace bertha
