#include "core/negotiation.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/hash.hpp"
#include "util/log.hpp"

namespace bertha {

// --- message serde ---

Bytes encode_hello(const HelloMsg& m) {
  Writer w;
  w.put_string(m.endpoint_name);
  w.put_string(m.host_id);
  w.put_string(m.process_id);
  serde_put(w, m.dag);
  serde_put(w, m.offers);
  put_trace_context(w, m.trace);  // optional tail; absent when invalid
  return std::move(w).take();
}

Result<HelloMsg> decode_hello(BytesView b) {
  Reader r(b);
  HelloMsg m;
  BERTHA_TRY_ASSIGN(name, r.get_string());
  BERTHA_TRY_ASSIGN(host, r.get_string());
  BERTHA_TRY_ASSIGN(proc, r.get_string());
  BERTHA_TRY_ASSIGN(dag, serde_get<ChunnelDag>(r));
  BERTHA_TRY_ASSIGN(offers,
                    (serde_get<std::map<std::string, std::vector<ImplInfo>>>(r)));
  m.endpoint_name = std::move(name);
  m.host_id = std::move(host);
  m.process_id = std::move(proc);
  m.dag = std::move(dag);
  m.offers = std::move(offers);
  m.trace = read_trace_context_tail(r);  // tolerant: garbage -> no context
  return m;
}

Bytes encode_accept(const AcceptMsg& m) {
  Writer w;
  w.put_varint(m.token);
  w.put_string(m.host_id);
  w.put_string(m.process_id);
  serde_put(w, m.chain);
  w.put_varint(m.chain_digest);
  return std::move(w).take();
}

Result<AcceptMsg> decode_accept(BytesView b) {
  Reader r(b);
  AcceptMsg m;
  BERTHA_TRY_ASSIGN(token, r.get_varint());
  BERTHA_TRY_ASSIGN(host, r.get_string());
  BERTHA_TRY_ASSIGN(proc, r.get_string());
  BERTHA_TRY_ASSIGN(chain, serde_get<std::vector<NegotiatedNode>>(r));
  BERTHA_TRY_ASSIGN(digest, r.get_varint());
  m.token = token;
  m.host_id = std::move(host);
  m.process_id = std::move(proc);
  m.chain = std::move(chain);
  m.chain_digest = digest;
  return m;
}

Bytes encode_reject(const RejectMsg& m) {
  Writer w;
  w.put_u8(m.errc);
  w.put_string(m.reason);
  return std::move(w).take();
}

Result<RejectMsg> decode_reject(BytesView b) {
  Reader r(b);
  RejectMsg m;
  BERTHA_TRY_ASSIGN(ec, r.get_u8());
  BERTHA_TRY_ASSIGN(reason, r.get_string());
  m.errc = ec;
  m.reason = std::move(reason);
  return m;
}

uint64_t attest_chain(const std::vector<NegotiatedNode>& chain,
                      const std::string& secret) {
  Writer w;
  w.put_string(secret);
  serde_put(w, chain);
  w.put_string(secret);  // sandwich the payload between key material
  uint64_t h = fnv1a64(w.bytes());
  return mix64(h) | 1;  // never 0 (0 means "unattested")
}

// --- candidate assembly ---

std::vector<Candidate> rank_candidates(
    const ChunnelSpec& spec, const std::vector<ImplInfo>& client_offered,
    const std::vector<ImplInfo>& server_registered,
    const std::vector<ImplInfo>& network_entries, const Policy& policy,
    bool same_host) {
  // Merge the three sources by implementation name.
  std::map<std::string, Candidate> by_name;
  auto merge = [&](const ImplInfo& info, bool cli, bool srv, bool net) {
    // Factory-only registrations are instantiation code, not available
    // implementations; availability comes from discovery instances.
    if (info.factory_only) return;
    auto& c = by_name[info.name];
    if (c.info.name.empty()) c.info = info;
    c.client_offers |= cli;
    c.server_offers |= srv;
    c.network_provided |= net;
  };
  for (const auto& i : client_offered)
    if (i.type == spec.type) merge(i, true, false, false);
  for (const auto& i : server_registered)
    if (i.type == spec.type) merge(i, false, true, false);
  for (const auto& i : network_entries)
    if (i.type == spec.type) merge(i, false, false, true);

  // Instance scoping: offloads installed for one application instance
  // (a particular consensus group, a particular service) advertise
  // props["instance"]; a DAG node that names its instance only accepts
  // matching (or instance-agnostic) implementations. Without this, a
  // high-priority offload installed for application A would capture
  // application B's traffic.
  std::string wanted_instance = spec.args.get_or("instance", "");

  std::vector<Candidate> out;
  for (auto& [name, c] : by_name) {
    if (auto it = c.info.props.find("instance"); it != c.info.props.end()) {
      if (it->second != wanted_instance) continue;
    }
    // Scope constraint from the DAG node: the implementation must be
    // placeable within the requested scope.
    if (spec.scope_constraint && c.info.scope > *spec.scope_constraint)
      continue;
    // Host-scoped offloads (e.g. an XDP program or a unix-socket path on
    // the server's machine) are only *cross-host usable* when declared;
    // an application-scoped impl is always fine (it runs in-process at
    // each end). A host-scoped impl whose work is shared by both ends
    // requires the endpoints to share a host.
    if (c.info.scope == Scope::application &&
        c.info.endpoints == EndpointConstraint::both &&
        !(c.client_offers && c.server_offers))
      continue;  // both processes must have the code
    if (c.info.scope == Scope::host &&
        c.info.endpoints == EndpointConstraint::both && !same_host)
      continue;
    // Endpoint availability (§4.2).
    switch (c.info.endpoints) {
      case EndpointConstraint::client:
        if (!c.client_offers) continue;
        break;
      case EndpointConstraint::server:
        if (!c.server_offers && !c.network_provided) continue;
        break;
      case EndpointConstraint::both:
        if (!(c.client_offers && (c.server_offers || c.network_provided)))
          continue;
        break;
    }
    if (policy.score(spec.type, c) < 0) continue;
    out.push_back(c);
  }

  std::sort(out.begin(), out.end(), [&](const Candidate& a, const Candidate& b) {
    int64_t sa = policy.score(spec.type, a);
    int64_t sb = policy.score(spec.type, b);
    if (sa != sb) return sa > sb;
    return a.info.name < b.info.name;  // deterministic tie-break
  });
  return out;
}

// --- server-side negotiation ---

namespace {

// The deployment's entries for every spec, in order, from one catalogue
// read. A type the service could not answer binds from the local and
// offered implementations only, and marks `degraded`.
std::vector<std::vector<ImplInfo>> network_entries_for(
    const std::vector<ChunnelSpec>& specs, DiscoveryClient& discovery,
    bool& degraded) {
  if (specs.empty()) return {};
  std::vector<std::string> types;
  types.reserve(specs.size());
  for (const auto& spec : specs) types.push_back(spec.type);
  auto outcomes = discovery.query_many(types);
  std::vector<std::vector<ImplInfo>> out(specs.size());
  for (size_t i = 0; i < specs.size(); i++) {
    if (i < outcomes.size() && outcomes[i].ok()) {
      out[i] = std::move(outcomes[i]).value();
      continue;
    }
    BLOG(warn, "negotiate")
        << "discovery query failed for " << specs[i].type << ": "
        << (i < outcomes.size() ? outcomes[i].error().to_string()
                                : std::string("no answer"));
    degraded = true;
  }
  if (discovery.degraded()) degraded = true;
  return out;
}

// Binds one chain of specs to implementations. On failure, releases any
// resources it reserved itself.
Result<NegotiationResult> select_chain(
    const std::vector<ChunnelSpec>& specs, const HelloMsg& hello,
    const Registry& registry, DiscoveryClient& discovery, const Policy& policy,
    const std::map<std::string, ChunnelArgs>& advertisements, bool same_host) {
  NegotiationResult result;
  auto release_all = [&] {
    for (uint64_t id : result.resource_allocs) (void)discovery.release(id);
    result.resource_allocs.clear();
    result.alloc_nodes.clear();
  };

  auto network = network_entries_for(specs, discovery, result.degraded);
  for (size_t i = 0; i < specs.size(); i++) {
    const ChunnelSpec& spec = specs[i];
    static const std::vector<ImplInfo> kNone;
    const std::vector<ImplInfo>* client_offered = &kNone;
    if (auto it = hello.offers.find(spec.type); it != hello.offers.end())
      client_offered = &it->second;

    auto candidates =
        rank_candidates(spec, *client_offered, registry.infos_for(spec.type),
                        network[i], policy, same_host);
    if (candidates.empty()) {
      release_all();
      return err(Errc::incompatible,
                 "no usable implementation for chunnel type '" + spec.type +
                     "'");
    }

    // First candidate whose resource requirements can be reserved wins.
    const Candidate* chosen = nullptr;
    for (const auto& c : candidates) {
      if (c.info.resources.empty()) {
        chosen = &c;
        break;
      }
      auto alloc = discovery.acquire(c.info.resources);
      if (alloc.ok()) {
        result.resource_allocs.push_back(alloc.value());
        result.alloc_nodes.push_back(result.chain.size());
        chosen = &c;
        break;
      }
      BLOG(debug, "negotiate")
          << c.info.name << " skipped: " << alloc.error().to_string();
    }
    if (!chosen) {
      release_all();
      return err(Errc::resource_exhausted,
                 "all implementations of '" + spec.type +
                     "' are resource-constrained");
    }

    NegotiatedNode node;
    node.type = spec.type;
    node.impl_name = chosen->info.name;
    // Merge order (later wins): app DAG args < impl props < listener
    // advertisements. The impl sees one flat map.
    node.args = spec.args.merged_with(ChunnelArgs(chosen->info.props));
    if (auto it = advertisements.find(spec.type); it != advertisements.end())
      node.args = node.args.merged_with(it->second);
    result.chain.push_back(std::move(node));
  }

  return result;
}

// Describes the tentatively-bound chain to the optimizer, using the
// props chunnel authors declare on their implementations.
std::vector<OptStage> to_opt_stages(const NegotiationResult& bound) {
  std::vector<OptStage> stages;
  for (auto& info : describe_stages(bound.chain))
    stages.push_back(std::move(info.opt));
  return stages;
}

// Rebuilds a spec chain from an optimizer plan: surviving types reuse
// their original specs; a merged type absorbs the args of the originals
// it replaced (consumed in order).
std::vector<ChunnelSpec> specs_from_plan(
    const std::vector<ChunnelSpec>& original,
    const std::vector<OptStage>& plan) {
  std::vector<bool> used(original.size(), false);
  auto take = [&](const std::string& type) -> const ChunnelSpec* {
    for (size_t i = 0; i < original.size(); i++)
      if (!used[i] && original[i].type == type) {
        used[i] = true;
        return &original[i];
      }
    return nullptr;
  };
  std::vector<ChunnelSpec> out;
  for (const auto& stage : plan) {
    if (const ChunnelSpec* spec = take(stage.type)) {
      out.push_back(*spec);
      continue;
    }
    // A merged stage: absorb the args of every remaining original (the
    // merged impl needs e.g. the cipher key the encrypt node carried).
    ChunnelSpec merged(stage.type);
    for (size_t i = 0; i < original.size(); i++)
      if (!used[i]) merged.args = merged.args.merged_with(original[i].args);
    out.push_back(std::move(merged));
  }
  return out;
}

}  // namespace

std::vector<StageInfo> describe_stages(
    const std::vector<NegotiatedNode>& chain) {
  std::vector<StageInfo> out;
  out.reserve(chain.size());
  for (const auto& node : chain) {
    StageInfo s;
    s.type = node.type;
    s.impl_name = node.impl_name;
    s.args = node.args;
    s.opt.type = node.type;
    s.opt.offloadable = node.args.get_or("offloadable", "false") == "true";
    char* end = nullptr;
    std::string sf = node.args.get_or("size_factor", "1");
    double f = std::strtod(sf.c_str(), &end);
    s.opt.size_factor = (end && *end == '\0' && f > 0) ? f : 1.0;
    std::string csv = node.args.get_or("commutes_with", "");
    size_t start = 0;
    while (start < csv.size()) {
      size_t comma = csv.find(',', start);
      std::string item = csv.substr(
          start, comma == std::string::npos ? std::string::npos : comma - start);
      if (!item.empty()) s.opt.commutes_with.insert(item);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    out.push_back(std::move(s));
  }
  return out;
}

Result<NegotiationResult> negotiate_server(
    const std::vector<ChunnelSpec>& server_chain, const HelloMsg& hello,
    const Registry& registry, DiscoveryClient& discovery, const Policy& policy,
    const std::map<std::string, ChunnelArgs>& advertisements,
    const std::string& server_host_id, const DagOptimizer* optimizer) {
  // DAG compatibility: the server's chain is authoritative (Listing 5's
  // client specifies no chunnels); a non-empty client DAG must agree on
  // the type sequence.
  if (!hello.dag.empty_dag()) {
    auto client_chain_r = hello.dag.as_chain();
    if (!client_chain_r.ok())
      return err(Errc::incompatible, "client dag is not a chain");
    const auto& cc = client_chain_r.value();
    if (cc.size() != server_chain.size())
      return err(Errc::incompatible, "client/server dag length mismatch");
    for (size_t i = 0; i < cc.size(); i++)
      if (cc[i].type != server_chain[i].type)
        return err(Errc::incompatible,
                   "dag type mismatch at position " + std::to_string(i) +
                       ": client=" + cc[i].type +
                       " server=" + server_chain[i].type);
  }

  const bool same_host = hello.host_id == server_host_id;

  BERTHA_TRY_ASSIGN(result, select_chain(server_chain, hello, registry,
                                         discovery, policy, advertisements,
                                         same_host));
  if (!optimizer) return std::move(result);

  // §6: rewrite the tentatively-bound pipeline (reorder to hug the NIC,
  // merge into combined offloads) and re-bind. Keep the rewrite only if
  // the types actually changed and every rewritten node still binds.
  auto plan_r = optimizer->optimize(to_opt_stages(result));
  if (!plan_r.ok()) return std::move(result);
  const PipelinePlan& plan = plan_r.value();

  bool changed = plan.stages.size() != result.chain.size();
  for (size_t i = 0; !changed && i < plan.stages.size(); i++)
    changed = plan.stages[i].type != result.chain[i].type;
  if (!changed) return std::move(result);

  auto rewritten_specs = specs_from_plan(server_chain, plan.stages);
  auto rebound = select_chain(rewritten_specs, hello, registry, discovery,
                              policy, advertisements, same_host);
  if (!rebound.ok()) {
    BLOG(info, "negotiate") << "dag rewrite abandoned: "
                            << rebound.error().to_string();
    return std::move(result);
  }
  for (const auto& what : plan.applied)
    BLOG(info, "negotiate") << "dag rewrite: " << what;
  for (uint64_t id : result.resource_allocs) (void)discovery.release(id);
  return rebound;
}

// --- live renegotiation ---

Result<RenegotiationResult> renegotiate_server(
    const std::vector<ChunnelSpec>& server_chain,
    const std::vector<NegotiatedNode>& current,
    const std::vector<NodeAlloc>& current_allocs, const HelloMsg& hello,
    const Registry& registry, DiscoveryClient& discovery, const Policy& policy,
    const std::map<std::string, ChunnelArgs>& advertisements,
    const std::string& server_host_id,
    const std::vector<std::pair<std::string, std::string>>& banned,
    const DagOptimizer* optimizer) {
  RenegotiationResult unchanged;
  unchanged.chain = current;
  unchanged.kept_allocs = current_allocs;

  bool positional = current.size() == server_chain.size();
  for (size_t i = 0; positional && i < current.size(); i++)
    positional = current[i].type == server_chain[i].type;

  // An optimizer-rewritten incumbent chain: without an optimizer the
  // binding is kept for life (the pre-synthesis behavior); with one,
  // rebuild positional specs for the *current* stage sequence from the
  // original server specs (a merged stage re-absorbs the args of the
  // originals it replaced) so the rewritten pipeline can still swap
  // implementations position by position.
  std::vector<ChunnelSpec> derived;
  const std::vector<ChunnelSpec>* specs = &server_chain;
  if (!positional) {
    if (!optimizer) return unchanged;
    std::vector<OptStage> cur_stages;
    for (auto& info : describe_stages(current))
      cur_stages.push_back(std::move(info.opt));
    derived = specs_from_plan(server_chain, cur_stages);
    specs = &derived;
  }

  const bool same_host = hello.host_id == server_host_id;
  auto is_banned = [&](const std::string& type, const std::string& name) {
    for (const auto& [t, n] : banned)
      if (t == type && n == name) return true;
    return false;
  };

  RenegotiationResult result;
  auto release_new = [&] {
    for (const auto& a : result.new_allocs) (void)discovery.release(a.alloc_id);
    result.new_allocs.clear();
  };

  // Binds one spec with no incumbent — used for stages the optimizer
  // introduces mid-life (a merged offload that only now has a usable
  // implementation). Returns the node and the reservation it made
  // (0 = the chosen implementation needed none).
  auto select_fresh = [&](const ChunnelSpec& spec,
                          const std::vector<ImplInfo>& network_entries)
      -> Result<std::pair<NegotiatedNode, uint64_t>> {
    static const std::vector<ImplInfo> kNoOffers;
    const std::vector<ImplInfo>* offered = &kNoOffers;
    if (auto it = hello.offers.find(spec.type); it != hello.offers.end())
      offered = &it->second;
    auto candidates =
        rank_candidates(spec, *offered, registry.infos_for(spec.type),
                        network_entries, policy, same_host);
    for (const auto& c : candidates) {
      if (is_banned(spec.type, c.info.name)) continue;
      uint64_t alloc_id = 0;
      if (!c.info.resources.empty()) {
        auto alloc = discovery.acquire(c.info.resources);
        if (!alloc.ok()) {
          BLOG(debug, "renegotiate")
              << c.info.name << " skipped: " << alloc.error().to_string();
          continue;
        }
        alloc_id = alloc.value();
      }
      NegotiatedNode node;
      node.type = spec.type;
      node.impl_name = c.info.name;
      node.args = spec.args.merged_with(ChunnelArgs(c.info.props));
      if (auto it = advertisements.find(spec.type); it != advertisements.end())
        node.args = node.args.merged_with(it->second);
      return std::make_pair(std::move(node), alloc_id);
    }
    return err(Errc::incompatible,
               "no usable implementation for chunnel type '" + spec.type + "'");
  };

  auto network = network_entries_for(*specs, discovery, result.degraded);
  for (size_t i = 0; i < specs->size(); i++) {
    const ChunnelSpec& spec = (*specs)[i];
    const NegotiatedNode& cur = current[i];

    static const std::vector<ImplInfo> kNone;
    const std::vector<ImplInfo>* client_offered = &kNone;
    if (auto it = hello.offers.find(spec.type); it != hello.offers.end())
      client_offered = &it->second;

    auto candidates =
        rank_candidates(spec, *client_offered, registry.infos_for(spec.type),
                        network[i], policy, same_host);

    // Walk best-first. Hitting the incumbent means nothing better is
    // usable: keep it verbatim, *without* re-acquiring the slot it
    // already holds. A higher-ranked candidate must actually reserve its
    // resources to displace the incumbent.
    const Candidate* chosen = nullptr;
    bool keep_incumbent = false;
    for (const auto& c : candidates) {
      if (is_banned(spec.type, c.info.name)) continue;
      if (c.info.name == cur.impl_name) {
        chosen = &c;
        keep_incumbent = true;
        break;
      }
      if (c.info.resources.empty()) {
        chosen = &c;
        break;
      }
      auto alloc = discovery.acquire(c.info.resources);
      if (alloc.ok()) {
        result.new_allocs.push_back({i, alloc.value()});
        chosen = &c;
        break;
      }
      BLOG(debug, "renegotiate")
          << c.info.name << " skipped: " << alloc.error().to_string();
    }
    if (!chosen) {
      release_new();
      return err(Errc::incompatible,
                 "no usable implementation for chunnel type '" + spec.type +
                     "' after renegotiation");
    }

    if (keep_incumbent) {
      result.chain.push_back(cur);
      for (const auto& a : current_allocs)
        if (a.node == i) result.kept_allocs.push_back({i, a.alloc_id});
      continue;
    }

    result.changed = true;
    NegotiatedNode node;
    node.type = spec.type;
    node.impl_name = chosen->info.name;
    node.args = spec.args.merged_with(ChunnelArgs(chosen->info.props));
    if (auto it = advertisements.find(spec.type); it != advertisements.end())
      node.args = node.args.merged_with(it->second);
    result.chain.push_back(std::move(node));
    for (const auto& a : current_allocs)
      if (a.node == i) result.retired_allocs.push_back(a.alloc_id);
  }

  // Transition-aware §6 re-run: a stage-sequence rewrite that only
  // became possible mid-life (a merged offload registered, a synthesized
  // program subsuming a prefix) restages the chain before the offer goes
  // out. Surviving stages carry their nodes and slots over; introduced
  // stages bind fresh; reservations acquired this run for stages the
  // rewrite drops are released immediately (superseded — they never
  // carried traffic) while dropped incumbents' slots retire under the
  // drain-before-release invariant.
  if (optimizer) {
    std::vector<OptStage> stages;
    for (auto& info : describe_stages(result.chain))
      stages.push_back(std::move(info.opt));
    auto plan_r = optimizer->optimize(std::move(stages));
    if (plan_r.ok()) {
      const PipelinePlan& plan = plan_r.value();
      bool rewritten = plan.stages.size() != result.chain.size();
      for (size_t i = 0; !rewritten && i < plan.stages.size(); i++)
        rewritten = plan.stages[i].type != result.chain[i].type;
      if (rewritten) {
        auto rewritten_specs = specs_from_plan(*specs, plan.stages);
        RenegotiationResult out;
        out.retired_allocs = result.retired_allocs;
        // Match surviving stages first, so the stages the rewrite
        // introduces are known up front and bound from one catalogue read.
        std::vector<bool> used(result.chain.size(), false);
        std::vector<size_t> survivor(plan.stages.size(), result.chain.size());
        std::vector<ChunnelSpec> introduced;
        for (size_t j = 0; j < plan.stages.size(); j++) {
          for (size_t k = 0; k < result.chain.size(); k++)
            if (!used[k] && result.chain[k].type == plan.stages[j].type) {
              used[k] = true;
              survivor[j] = k;
              break;
            }
          if (survivor[j] == result.chain.size())
            introduced.push_back(rewritten_specs[j]);
        }
        auto fresh_network =
            network_entries_for(introduced, discovery, result.degraded);
        out.degraded = result.degraded;
        size_t next_fresh = 0;
        std::vector<uint64_t> staged_here;  // rolled back if the restage aborts
        bool aborted = false;
        for (size_t j = 0; j < plan.stages.size(); j++) {
          size_t i = survivor[j];
          if (i < result.chain.size()) {  // surviving stage: carry over
            out.chain.push_back(result.chain[i]);
            for (const auto& a : result.kept_allocs)
              if (a.node == i) out.kept_allocs.push_back({j, a.alloc_id});
            for (const auto& a : result.new_allocs)
              if (a.node == i) out.new_allocs.push_back({j, a.alloc_id});
            continue;
          }
          auto fresh = select_fresh(rewritten_specs[j],
                                    fresh_network[next_fresh++]);
          if (!fresh.ok()) {  // rewrite unusable: keep the phase-1 chain
            BLOG(info, "renegotiate")
                << "restage abandoned: " << fresh.error().to_string();
            aborted = true;
            break;
          }
          auto [node, alloc_id] = std::move(fresh).value();
          out.chain.push_back(std::move(node));
          if (alloc_id != 0) {
            out.new_allocs.push_back({j, alloc_id});
            staged_here.push_back(alloc_id);
          }
        }
        if (aborted) {
          for (uint64_t id : staged_here) (void)discovery.release(id);
        } else {
          for (size_t i = 0; i < result.chain.size(); i++) {
            if (used[i]) continue;
            for (const auto& a : result.new_allocs)
              if (a.node == i) (void)discovery.release(a.alloc_id);
            for (const auto& a : result.kept_allocs)
              if (a.node == i) out.retired_allocs.push_back(a.alloc_id);
          }
          for (const auto& what : plan.applied)
            BLOG(info, "renegotiate") << "restage: " << what;
          out.changed = true;
          result = std::move(out);
        }
      }
    }
  }

  if (!result.changed) return unchanged;
  return result;
}

}  // namespace bertha
