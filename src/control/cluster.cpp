#include "control/cluster.hpp"

#include <map>

#include "util/log.hpp"

namespace bertha {

namespace {
std::vector<uint32_t> identity_home_for(uint64_t modulo) {
  std::vector<uint32_t> home(static_cast<size_t>(modulo));
  for (size_t i = 0; i < home.size(); i++) home[i] = static_cast<uint32_t>(i);
  return home;
}
}  // namespace

// --- ClusterDiscovery ---

Result<std::shared_ptr<ClusterDiscovery>> ClusterDiscovery::connect(
    Config cfg) {
  if (cfg.partitions.empty())
    return err(Errc::invalid_argument, "cluster client needs partitions");
  if (!cfg.transports)
    return err(Errc::invalid_argument, "cluster client needs a factory");
  for (const auto& servers : cfg.partitions)
    if (servers.empty())
      return err(Errc::invalid_argument, "partition with no replicas");

  auto cd = std::shared_ptr<ClusterDiscovery>(
      new ClusterDiscovery(cfg.partitions.size()));
  cd->cfg_ = std::move(cfg);
  for (const auto& servers : cd->cfg_.partitions) {
    BERTHA_TRY_ASSIGN(c, cd->connect_partition(servers));
    cd->clients_.push_back(std::move(c));
  }
  return cd;
}

Result<std::shared_ptr<RemoteDiscovery>> ClusterDiscovery::connect_partition(
    const std::vector<Addr>& servers) const {
  // One client transport and one failover RemoteDiscovery per partition.
  // Each per-partition client owns its own client_id, leases and
  // heartbeats, so lease state lives exactly where the leased
  // registrations do.
  BERTHA_TRY_ASSIGN(
      t, cfg_.transports->bind(client_bind_for(servers[0], cfg_.host_id)));
  return std::make_shared<RemoteDiscovery>(std::move(t), servers, cfg_.rpc);
}

std::shared_ptr<RemoteDiscovery> ClusterDiscovery::client_for(
    size_t idx) const {
  std::lock_guard<std::mutex> lk(cl_mu_);
  return idx < clients_.size() ? clients_[idx] : nullptr;
}

size_t ClusterDiscovery::partitions() const {
  std::lock_guard<std::mutex> lk(cl_mu_);
  return clients_.size();
}

ClusterDiscovery::~ClusterDiscovery() {
  // Cancelling an upstream waits out its sink, so no relay runs past here.
  std::lock_guard<std::mutex> lk(fan_mu_);
  for (auto& [idx, w] : fan_upstreams_) w->cancel();
  for (auto& w : fan_outs_) w->cancel();
}

Result<void> ClusterDiscovery::register_impl(const ImplInfo& info) {
  auto c = client_for(map_.index_for_type(info.type));
  if (!c) return err(Errc::unavailable, "partition client re-steering");
  return c->register_impl(info);
}

Result<void> ClusterDiscovery::unregister_impl(const std::string& type,
                                               const std::string& name) {
  auto c = client_for(map_.index_for_type(type));
  if (!c) return err(Errc::unavailable, "partition client re-steering");
  return c->unregister_impl(type, name);
}

Result<std::vector<ImplInfo>> ClusterDiscovery::query(const std::string& type) {
  auto c = client_for(map_.index_for_type(type));
  if (!c) return err(Errc::unavailable, "partition client re-steering");
  return c->query(type);
}

DiscoveryClient::QueryOutcomes ClusterDiscovery::query_many(
    const std::vector<std::string>& types) {
  struct Leg {
    std::vector<size_t> idx;  // positions in `types`
    std::shared_ptr<RemoteDiscovery> client;
    std::shared_ptr<RemoteDiscovery::QueryCall> call;
  };
  std::map<size_t, Leg> legs;  // by partition
  for (size_t i = 0; i < types.size(); i++)
    legs[map_.index_for_type(types[i])].idx.push_back(i);
  for (auto& [p, leg] : legs) {
    leg.client = client_for(p);
    if (!leg.client) continue;
    std::vector<std::string> mine;
    for (size_t i : leg.idx) mine.push_back(types[i]);
    leg.call = leg.client->send_query_many(std::move(mine));
  }
  QueryOutcomes out(types.size(), err(Errc::unavailable,
                                      "partition client re-steering"));
  for (auto& [p, leg] : legs) {
    if (!leg.call) continue;
    auto got = leg.client->await_query_many(*leg.call);
    for (size_t k = 0; k < leg.idx.size(); k++)
      out[leg.idx[k]] = std::move(got[k]);
  }
  return out;
}

Result<uint64_t> ClusterDiscovery::acquire(
    const std::vector<ResourceReq>& reqs) {
  if (reqs.empty()) return err(Errc::invalid_argument, "empty acquire");
  size_t idx = map_.index_for_pool(reqs[0].pool);
  for (const auto& r : reqs)
    if (map_.index_for_pool(r.pool) != idx)
      // Admission is atomic only within a partition; co-locate pools
      // that must be acquired together (same hash bucket) or acquire
      // them separately with caller-side rollback.
      return err(Errc::invalid_argument,
                 "acquire spans partitions: " + reqs[0].pool + " vs " + r.pool);
  auto c = client_for(idx);
  if (!c) return err(Errc::unavailable, "partition client re-steering");
  return c->acquire(reqs);
}

Result<void> ClusterDiscovery::release(uint64_t alloc_id) {
  // Ids are namespaced by the partition that minted them; the namespace
  // is a steering bucket, so a split/merge re-homes release routing
  // exactly like the catalogue (the old home forwards one hop for
  // clients whose map is still a stale epoch).
  BERTHA_TRY_ASSIGN(idx, map_.index_for_alloc_routed(alloc_id));
  auto c = client_for(idx);
  if (!c) return err(Errc::unavailable, "partition client re-steering");
  return c->release(alloc_id);
}

Result<void> ClusterDiscovery::set_pool(const std::string& pool,
                                        uint64_t capacity) {
  auto c = client_for(map_.index_for_pool(pool));
  if (!c) return err(Errc::unavailable, "partition client re-steering");
  return c->set_pool(pool, capacity);
}

Result<WatcherPtr> ClusterDiscovery::watch(const std::string& type_filter) {
  if (!type_filter.empty()) {
    auto c = client_for(map_.index_for_type(type_filter));
    if (!c) return err(Errc::unavailable, "partition client re-steering");
    return c->watch(type_filter);
  }
  // Catalogue-wide: fan in one stream per partition.
  auto out = std::make_shared<DiscoveryWatcher>("");
  std::vector<std::pair<size_t, std::shared_ptr<RemoteDiscovery>>> cs;
  {
    std::lock_guard<std::mutex> lk(cl_mu_);
    for (size_t i = 0; i < clients_.size(); i++) cs.emplace_back(i, clients_[i]);
  }
  std::vector<std::pair<size_t, WatcherPtr>> ups;
  for (auto& [i, c] : cs) {
    BERTHA_TRY_ASSIGN(w, c->watch(""));
    ups.emplace_back(i, std::move(w));
  }
  std::lock_guard<std::mutex> lk(fan_mu_);
  for (auto& [i, w] : ups) {
    fan_in(w, out);
    fan_upstreams_.emplace_back(i, w);
  }
  fan_outs_.push_back(out);
  return out;
}

void ClusterDiscovery::fan_in(const WatcherPtr& upstream,
                              const WatcherPtr& out) {
  // The merged stream is its own seq domain (per-partition seqs are
  // incomparable), so the upstream's reader re-stamps each batch
  // from a local counter as it delivers it; fan_seq_mu_ keeps the
  // stamps in queue order across partitions.
  upstream->set_sink([this, out](std::vector<WatchEvent> evs) {
    std::lock_guard<std::mutex> lk(fan_seq_mu_);
    for (auto& ev : evs) ev.seq = ++fan_seq_;
    out->deliver_batch(std::move(evs));
  });
  // Cancelling the merged watcher cancels the upstream, and its client
  // then unsubscribes.
  out->on_cancel([upstream] { upstream->cancel(); });
}

bool ClusterDiscovery::degraded() const {
  std::vector<std::shared_ptr<RemoteDiscovery>> cs;
  {
    std::lock_guard<std::mutex> lk(cl_mu_);
    cs = clients_;
  }
  for (const auto& c : cs)
    if (c->degraded()) return true;
  return false;
}

Result<void> ClusterDiscovery::apply_membership(const ClusterMembership& m) {
  BERTHA_TRY(map_.apply(m));
  // The epoch and steering are recorded; steer every partition client at
  // its new replica list (no-op for a client already on a member
  // server), connect clients for partitions a split added and drop the
  // ones a merge retired. Dropped clients are destroyed outside cl_mu_
  // (the destructor waits out a delivery by their reader).
  std::vector<std::shared_ptr<RemoteDiscovery>> dropped;
  std::vector<std::pair<size_t, std::shared_ptr<RemoteDiscovery>>> grown;
  {
    std::lock_guard<std::mutex> lk(cl_mu_);
    for (size_t i = 0; i < clients_.size() && i < m.partitions.size(); i++)
      clients_[i]->update_servers(m.partitions[i]);
    while (clients_.size() > m.partitions.size()) {
      dropped.push_back(std::move(clients_.back()));
      clients_.pop_back();
    }
    while (clients_.size() < m.partitions.size()) {
      size_t idx = clients_.size();
      BERTHA_TRY_ASSIGN(c, connect_partition(m.partitions[idx]));
      clients_.push_back(c);
      grown.emplace_back(idx, std::move(c));
    }
  }
  {
    std::lock_guard<std::mutex> lk(fan_mu_);
    // Merge: cancel the retired partitions' upstream streams.
    size_t live = 0;
    for (auto& [idx, w] : fan_upstreams_) {
      if (idx >= m.partitions.size())
        w->cancel();
      else
        fan_upstreams_[live++] = {idx, w};
    }
    fan_upstreams_.resize(live);
    // Split: every active fan-in watch subscribes to each new
    // partition. A fresh subscribe starts with a snapshot batch, so the
    // out stream sees the new home's full catalogue — duplicates of
    // events already fanned in are idempotent for catalogue consumers.
    for (auto& [idx, c] : grown) {
      for (auto& out : fan_outs_) {
        if (out->cancelled()) continue;
        auto w_r = c->watch("");
        if (!w_r.ok()) continue;
        WatcherPtr w = std::move(w_r).value();
        fan_in(w, out);
        fan_upstreams_.emplace_back(idx, w);
      }
    }
  }
  return ok();
}

size_t ClusterDiscovery::server_failovers() const {
  std::vector<std::shared_ptr<RemoteDiscovery>> cs;
  {
    std::lock_guard<std::mutex> lk(cl_mu_);
    cs = clients_;
  }
  size_t n = 0;
  for (const auto& c : cs) n += c->server_failovers();
  return n;
}

// --- DiscoveryCluster ---

std::string DiscoveryCluster::replica_name(size_t p, size_t r) const {
  return cfg_.prefix + "-p" + std::to_string(p) + "-r" + std::to_string(r);
}

DiscoveryReplicaOptions DiscoveryCluster::replica_opts(size_t p,
                                                       size_t r) const {
  DiscoveryReplicaOptions opts = cfg_.replica;
  opts.replica_id = replica_name(p, r);
  opts.partition_index = p;
  opts.sequencers = seq_addrs_[p];
  opts.sequencer = seq_addrs_[p][0];
  opts.peers.clear();
  for (size_t i = 0; i < member_addrs_[p].size(); i++)
    if (i != r) opts.peers.push_back(member_addrs_[p][i]);
  opts.catchup_timeout = cfg_.tuning.catchup_timeout;
  opts.view_ack_timeout = cfg_.tuning.view_ack_timeout;
  opts.view_silence_timeout = cfg_.sequencer_candidates > 1
                                  ? cfg_.tuning.view_silence_timeout
                                  : Duration::zero();
  // Lazy-bound one-shot channel for forwarding resharded requests to
  // their new home (decorated like everything else, so fault injection
  // applies to the forward hop too).
  std::string fwd = replica_name(p, r) + "-fwd";
  opts.forward_bind = [this, fwd]() { return bind(Addr::mem(fwd, 1), fwd); };
  return opts;
}

Result<void> DiscoveryCluster::start_partition(size_t p) {
  const Config& c = cfg_;
  std::string pp = c.prefix + "-p" + std::to_string(p);

  // Bind every replica's transports first: the sequencers need the
  // member list up front.
  std::vector<TransportPtr> rpcs, members;
  std::vector<Addr> member_addrs, rpc_addrs;
  for (size_t r = 0; r < c.replicas; r++) {
    std::string rr = replica_name(p, r);
    BERTHA_TRY_ASSIGN(rpc_t, bind(Addr::mem(rr, 1), rr + "-rpc"));
    BERTHA_TRY_ASSIGN(mem_t, bind(Addr::mem(rr, 2), rr + "-member"));
    rpc_addrs.push_back(rpc_t->local_addr());
    member_addrs.push_back(mem_t->local_addr());
    rpcs.push_back(std::move(rpc_t));
    members.push_back(std::move(mem_t));
  }

  // Sequencer candidates: candidate 0 starts active in view 0, the
  // rest stand by until a view-start frame elects them.
  std::vector<std::unique_ptr<SoftwareSequencer>> cands;
  std::vector<Addr> seq_addrs;
  for (size_t s = 0; s < c.sequencer_candidates; s++) {
    std::string chan = s == 0 ? pp + "-seq" : pp + "-seq" + std::to_string(s);
    BERTHA_TRY_ASSIGN(seq_t, bind(Addr::mem(chan, 1), chan));
    std::shared_ptr<Transport> seq_shared(std::move(seq_t));
    BERTHA_TRY_ASSIGN(
        seq, SoftwareSequencer::start_with(seq_shared, member_addrs,
                                           c.tuning.sequencer_resend_log,
                                           /*view=*/0, /*standby=*/s != 0));
    seq_addrs.push_back(seq->addr());
    cands.push_back(std::move(seq));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    sequencers_.push_back(std::move(cands));
    seq_addrs_.push_back(std::move(seq_addrs));
    member_addrs_.push_back(std::move(member_addrs));
    rpc_addrs_.push_back(std::move(rpc_addrs));
  }

  std::vector<std::unique_ptr<DiscoveryReplica>> group;
  for (size_t r = 0; r < c.replicas; r++) {
    BERTHA_TRY_ASSIGN(rep,
                      DiscoveryReplica::start(std::move(rpcs[r]),
                                              std::move(members[r]),
                                              replica_opts(p, r)));
    group.push_back(std::move(rep));
  }
  std::lock_guard<std::mutex> lk(mu_);
  replicas_.push_back(std::move(group));
  return ok();
}

Result<std::unique_ptr<DiscoveryCluster>> DiscoveryCluster::start(Config cfg) {
  if (!cfg.transports)
    return err(Errc::invalid_argument, "cluster needs a transport factory");
  if (cfg.partitions == 0 || cfg.replicas == 0)
    return err(Errc::invalid_argument, "cluster needs partitions and replicas");
  if (cfg.sequencer_candidates == 0) cfg.sequencer_candidates = 1;

  auto cluster = std::unique_ptr<DiscoveryCluster>(
      new DiscoveryCluster(std::move(cfg)));
  const Config& c = cluster->cfg_;

  // Reserved so prepare_partition's push_back never reallocates the
  // outer vectors under a concurrent accessor.
  constexpr size_t kMaxPartitions = 64;
  cluster->sequencers_.reserve(kMaxPartitions);
  cluster->seq_addrs_.reserve(kMaxPartitions);
  cluster->member_addrs_.reserve(kMaxPartitions);
  cluster->rpc_addrs_.reserve(kMaxPartitions);
  cluster->replicas_.reserve(kMaxPartitions);

  for (size_t p = 0; p < c.partitions; p++)
    BERTHA_TRY(cluster->start_partition(p));
  cluster->epoch_ = 1;
  cluster->modulo_ = c.partitions;
  cluster->home_ = identity_home_for(c.partitions);
  cluster->active_ = c.partitions;
  return cluster;
}

Result<TransportPtr> DiscoveryCluster::bind(const Addr& addr,
                                            const std::string& role) const {
  BERTHA_TRY_ASSIGN(t, cfg_.transports->bind(addr));
  if (cfg_.decorate) {
    t = cfg_.decorate(std::move(t), role);
    if (!t) return err(Errc::internal, "decorate hook returned null");
  }
  return t;
}

DiscoveryCluster::~DiscoveryCluster() { stop(); }

void DiscoveryCluster::stop() {
  // Replicas first (they propose into the sequencers), then sequencers.
  replicas_.clear();
  sequencers_.clear();
}

std::vector<Addr> DiscoveryCluster::partition_servers(size_t p) const {
  std::lock_guard<std::mutex> lk(mu_);
  return rpc_addrs_[p];
}

std::vector<std::vector<Addr>> DiscoveryCluster::all_servers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rpc_addrs_;
}

std::vector<Addr> DiscoveryCluster::partition_members(size_t p) const {
  std::lock_guard<std::mutex> lk(mu_);
  return member_addrs_[p];
}

std::vector<Addr> DiscoveryCluster::sequencer_addrs(size_t p) const {
  std::lock_guard<std::mutex> lk(mu_);
  return seq_addrs_[p];
}

size_t DiscoveryCluster::active_partitions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_;
}

ClusterMembership DiscoveryCluster::membership() const {
  std::lock_guard<std::mutex> lk(mu_);
  ClusterMembership m;
  m.epoch = epoch_;
  m.partitions.assign(rpc_addrs_.begin(),
                      rpc_addrs_.begin() + static_cast<long>(active_));
  m.modulo = modulo_;
  m.home = home_;
  return m;
}

void DiscoveryCluster::kill_replica(size_t p, size_t r) {
  std::unique_ptr<DiscoveryReplica> dead;  // destroyed outside mu_
  std::lock_guard<std::mutex> lk(mu_);
  if (p < replicas_.size() && r < replicas_[p].size())
    dead = std::move(replicas_[p][r]);
}

bool DiscoveryCluster::alive(size_t p, size_t r) const {
  std::lock_guard<std::mutex> lk(mu_);
  return p < replicas_.size() && r < replicas_[p].size() &&
         replicas_[p][r] != nullptr;
}

Result<void> DiscoveryCluster::restart_replica(size_t p, size_t r) {
  if (p >= partitions() || r >= replicas(p))
    return err(Errc::invalid_argument, "no such replica");
  if (alive(p, r))
    return err(Errc::already_exists, "replica still alive (kill it first)");
  std::string rr = replica_name(p, r);
  BERTHA_TRY_ASSIGN(rpc_t, bind(Addr::mem(rr, 1), rr + "-rpc"));
  BERTHA_TRY_ASSIGN(mem_t, bind(Addr::mem(rr, 2), rr + "-member"));
  DiscoveryReplicaOptions opts = replica_opts(p, r);
  // Catch up from the surviving peers; a lone replica has nobody to ask
  // and boots empty instead.
  opts.catch_up = !opts.peers.empty();
  BERTHA_TRY_ASSIGN(rep, DiscoveryReplica::start(std::move(rpc_t),
                                                 std::move(mem_t),
                                                 std::move(opts)));
  std::lock_guard<std::mutex> lk(mu_);
  replicas_[p][r] = std::move(rep);
  return ok();
}

Result<size_t> DiscoveryCluster::add_replica(size_t p) {
  if (p >= partitions())
    return err(Errc::invalid_argument, "no such partition");
  size_t r = replicas(p);
  std::string rr = replica_name(p, r);
  BERTHA_TRY_ASSIGN(rpc_t, bind(Addr::mem(rr, 1), rr + "-rpc"));
  BERTHA_TRY_ASSIGN(mem_t, bind(Addr::mem(rr, 2), rr + "-member"));
  Addr rpc_addr = rpc_t->local_addr();
  Addr mem_addr = mem_t->local_addr();
  {
    std::lock_guard<std::mutex> lk(mu_);
    member_addrs_[p].push_back(mem_addr);
  }
  DiscoveryReplicaOptions opts = replica_opts(p, r);
  opts.catch_up = true;
  auto rep_r = DiscoveryReplica::start(std::move(rpc_t), std::move(mem_t),
                                       std::move(opts));
  if (!rep_r.ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    member_addrs_[p].pop_back();
    return rep_r.error();
  }
  // Steer the partition's live sequencers at the widened member list so
  // the joiner receives the multicast stream, then publish the config.
  std::lock_guard<std::mutex> lk(mu_);
  replicas_[p].push_back(std::move(rep_r).value());
  for (auto& s : sequencers_[p])
    if (s) s->update_members(member_addrs_[p]);
  rpc_addrs_[p].push_back(rpc_addr);
  epoch_++;
  return r;
}

Result<size_t> DiscoveryCluster::prepare_partition() {
  size_t p = partitions();
  if (p >= 64) return err(Errc::resource_exhausted, "partition slots");
  BERTHA_TRY(start_partition(p));
  return p;
}

Result<void> DiscoveryCluster::revive_partition(size_t p) {
  if (p >= partitions())
    return err(Errc::invalid_argument, "no such partition");
  for (size_t r = 0; r < replicas(p); r++)
    if (alive(p, r)) return err(Errc::already_exists, "partition not retired");
  std::string pp = cfg_.prefix + "-p" + std::to_string(p);
  std::vector<Addr> members = partition_members(p);
  for (size_t s = 0; s < cfg_.sequencer_candidates; s++) {
    std::string chan = s == 0 ? pp + "-seq" : pp + "-seq" + std::to_string(s);
    BERTHA_TRY_ASSIGN(seq_t, bind(Addr::mem(chan, 1), chan));
    std::shared_ptr<Transport> seq_shared(std::move(seq_t));
    BERTHA_TRY_ASSIGN(
        seq, SoftwareSequencer::start_with(seq_shared, members,
                                           cfg_.tuning.sequencer_resend_log,
                                           /*view=*/0, /*standby=*/s != 0));
    std::lock_guard<std::mutex> lk(mu_);
    sequencers_[p][s] = std::move(seq);
  }
  for (size_t r = 0; r < replicas(p); r++) {
    std::string rr = replica_name(p, r);
    BERTHA_TRY_ASSIGN(rpc_t, bind(Addr::mem(rr, 1), rr + "-rpc"));
    BERTHA_TRY_ASSIGN(mem_t, bind(Addr::mem(rr, 2), rr + "-member"));
    // Fresh boot, no catch-up: the revived slot has no peers with state;
    // it is about to receive a reshard install.
    BERTHA_TRY_ASSIGN(rep, DiscoveryReplica::start(std::move(rpc_t),
                                                   std::move(mem_t),
                                                   replica_opts(p, r)));
    std::lock_guard<std::mutex> lk(mu_);
    replicas_[p][r] = std::move(rep);
  }
  return ok();
}

void DiscoveryCluster::retire_partition(size_t p) {
  if (p >= partitions()) return;
  for (size_t r = 0; r < replicas(p); r++) kill_replica(p, r);
  for (size_t c = 0; c < cfg_.sequencer_candidates; c++) kill_sequencer(p, c);
}

uint64_t DiscoveryCluster::set_steering(uint64_t modulo,
                                        std::vector<uint32_t> home,
                                        size_t active) {
  std::lock_guard<std::mutex> lk(mu_);
  modulo_ = modulo;
  home_ = std::move(home);
  active_ = active;
  return ++epoch_;
}

size_t DiscoveryCluster::push_membership() {
  ClusterMembership m = membership();
  std::vector<std::shared_ptr<ClusterDiscovery>> clients;
  {
    std::lock_guard<std::mutex> lk(mu_);
    size_t live = 0;
    for (auto& w : client_registry_) {
      auto sp = w.lock();
      if (!sp) continue;
      client_registry_[live++] = w;
      clients.push_back(std::move(sp));
    }
    client_registry_.resize(live);
  }
  size_t adopted = 0;
  for (auto& c : clients)
    if (c->apply_membership(m).ok()) adopted++;
  return adopted;
}

void DiscoveryCluster::kill_sequencer(size_t p, size_t c) {
  std::unique_ptr<SoftwareSequencer> dead;  // destroyed outside mu_
  std::lock_guard<std::mutex> lk(mu_);
  if (p < sequencers_.size() && c < sequencers_[p].size())
    dead = std::move(sequencers_[p][c]);
}

bool DiscoveryCluster::sequencer_alive(size_t p, size_t c) const {
  std::lock_guard<std::mutex> lk(mu_);
  return p < sequencers_.size() && c < sequencers_[p].size() &&
         sequencers_[p][c] != nullptr;
}

Result<std::shared_ptr<ClusterDiscovery>> DiscoveryCluster::client(
    const std::string& host_id, RemoteDiscovery::Options rpc) {
  ClusterMembership m = membership();
  ClusterDiscovery::Config ccfg;
  ccfg.partitions = m.partitions;
  ccfg.transports = cfg_.transports;
  ccfg.host_id = host_id;
  if (rpc.watchdog_interval <= Duration::zero())
    rpc.watchdog_interval = cfg_.tuning.watchdog_interval;
  ccfg.rpc = std::move(rpc);
  BERTHA_TRY_ASSIGN(cd, ClusterDiscovery::connect(std::move(ccfg)));
  // Adopt the current steering (a fresh map starts at epoch 0 with an
  // identity home, which is wrong after any split/merge), then register
  // for future pushes.
  (void)cd->apply_membership(m);
  {
    std::lock_guard<std::mutex> lk(mu_);
    client_registry_.push_back(cd);
  }
  return cd;
}

}  // namespace bertha
