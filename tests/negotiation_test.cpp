// Tests for candidate assembly/filtering/ranking and server-side
// negotiation (§4.3), including the policy preferences and resource
// admission behaviors the paper describes.
#include <gtest/gtest.h>

#include "core/negotiation.hpp"

namespace bertha {
namespace {

ImplInfo impl(std::string type, std::string name, EndpointConstraint ep,
              Scope scope = Scope::application, int prio = 0) {
  ImplInfo i;
  i.type = std::move(type);
  i.name = std::move(name);
  i.endpoints = ep;
  i.scope = scope;
  i.priority = prio;
  return i;
}

class PassthroughChunnel final : public ChunnelImpl {
 public:
  explicit PassthroughChunnel(ImplInfo info) : info_(std::move(info)) {}
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext&) override { return inner; }

 private:
  ImplInfo info_;
};

// --- rank_candidates ---

TEST(RankCandidatesTest, ClientProvidedWinsUnderDefaultPolicy) {
  DefaultPolicy policy;
  auto client_push =
      impl("shard", "shard/client-push", EndpointConstraint::client,
           Scope::application, 5);
  auto xdp = impl("shard", "shard/xdp", EndpointConstraint::server,
                  Scope::host, 10);
  auto ranked = rank_candidates(ChunnelSpec("shard"), {client_push},
                                {xdp, client_push}, {}, policy,
                                /*same_host=*/false);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].info.name, "shard/client-push");
  EXPECT_EQ(ranked[1].info.name, "shard/xdp");
}

TEST(RankCandidatesTest, WithoutClientOfferPriorityDecides) {
  DefaultPolicy policy;
  auto client_push =
      impl("shard", "shard/client-push", EndpointConstraint::client,
           Scope::application, 5);
  auto xdp = impl("shard", "shard/xdp", EndpointConstraint::server,
                  Scope::host, 10);
  auto fallback = impl("shard", "shard/fallback", EndpointConstraint::server,
                       Scope::application, 0);
  // Client offers nothing: client-push is filtered (endpoints=client
  // requires a client factory), xdp beats fallback on priority.
  auto ranked =
      rank_candidates(ChunnelSpec("shard"), {}, {client_push, xdp, fallback},
                      {}, policy, false);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].info.name, "shard/xdp");
  EXPECT_EQ(ranked[1].info.name, "shard/fallback");
}

TEST(RankCandidatesTest, BothEndpointConstraintNeedsBothSides) {
  DefaultPolicy policy;
  auto arq = impl("reliable", "reliable/arq", EndpointConstraint::both);
  EXPECT_TRUE(rank_candidates(ChunnelSpec("reliable"), {}, {arq}, {}, policy,
                              true)
                  .empty());
  EXPECT_TRUE(rank_candidates(ChunnelSpec("reliable"), {arq}, {}, {}, policy,
                              true)
                  .empty());
  EXPECT_EQ(rank_candidates(ChunnelSpec("reliable"), {arq}, {arq}, {}, policy,
                            true)
                .size(),
            1u);
}

TEST(RankCandidatesTest, HostScopedBothEndsRequiresSameHost) {
  DefaultPolicy policy;
  auto hw = impl("x", "x/hw", EndpointConstraint::both, Scope::host, 10);
  EXPECT_TRUE(
      rank_candidates(ChunnelSpec("x"), {hw}, {hw}, {}, policy, false).empty());
  EXPECT_EQ(
      rank_candidates(ChunnelSpec("x"), {hw}, {hw}, {}, policy, true).size(),
      1u);
}

TEST(RankCandidatesTest, ScopeConstraintFiltersWiderImpls) {
  DefaultPolicy policy;
  auto rack_impl = impl("m", "m/switch", EndpointConstraint::server,
                        Scope::rack, 20);
  auto app_impl = impl("m", "m/sw", EndpointConstraint::server,
                       Scope::application, 0);
  ChunnelSpec host_constrained("m", ChunnelArgs(), Scope::host);
  auto ranked = rank_candidates(host_constrained, {}, {rack_impl, app_impl},
                                {}, policy, true);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].info.name, "m/sw");
}

TEST(RankCandidatesTest, NetworkProvidedServerImplIsUsable) {
  DefaultPolicy policy;
  auto offload = impl("m", "m/switch:sim://g:7", EndpointConstraint::server,
                      Scope::rack, 20);
  auto ranked = rank_candidates(ChunnelSpec("m"), {}, {}, {offload}, policy,
                                false);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_TRUE(ranked[0].network_provided);
}

TEST(RankCandidatesTest, SoftwareOnlyPolicyForbidsOffloads) {
  SoftwareOnlyPolicy policy;
  auto hw = impl("e", "e/nic", EndpointConstraint::server, Scope::host, 10);
  auto sw = impl("e", "e/sw", EndpointConstraint::server, Scope::application);
  auto ranked = rank_candidates(ChunnelSpec("e"), {}, {hw, sw}, {}, policy,
                                true);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].info.name, "e/sw");
}

TEST(RankCandidatesTest, DeterministicTieBreakByName) {
  DefaultPolicy policy;
  auto a = impl("t", "t/aaa", EndpointConstraint::server);
  auto b = impl("t", "t/bbb", EndpointConstraint::server);
  auto ranked = rank_candidates(ChunnelSpec("t"), {}, {b, a}, {}, policy, true);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].info.name, "t/aaa");
}

// --- negotiate_server ---

struct NegotiationFixture : ::testing::Test {
  void SetUp() override {
    ASSERT_TRUE(registry
                    .register_impl(std::make_shared<PassthroughChunnel>(impl(
                        "reliable", "reliable/arq", EndpointConstraint::both)))
                    .ok());
  }

  HelloMsg hello_offering_reliable() {
    HelloMsg h;
    h.endpoint_name = "cli";
    h.host_id = "host-a";
    h.process_id = "p1";
    h.offers["reliable"] = {
        impl("reliable", "reliable/arq", EndpointConstraint::both)};
    return h;
  }

  Registry registry;
  DiscoveryState discovery;
  DefaultPolicy policy;
  std::map<std::string, ChunnelArgs> ads;
};

TEST_F(NegotiationFixture, SelectsCommonImplementation) {
  std::vector<ChunnelSpec> chain{ChunnelSpec("reliable")};
  auto r = negotiate_server(chain, hello_offering_reliable(), registry,
                            discovery, policy, ads, "host-b");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  ASSERT_EQ(r.value().chain.size(), 1u);
  EXPECT_EQ(r.value().chain[0].impl_name, "reliable/arq");
}

TEST_F(NegotiationFixture, FailsWithoutAnyImplementation) {
  std::vector<ChunnelSpec> chain{ChunnelSpec("exotic")};
  auto r = negotiate_server(chain, hello_offering_reliable(), registry,
                            discovery, policy, ads, "host-b");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::incompatible);
}

TEST_F(NegotiationFixture, ClientDagMustMatchTypes) {
  std::vector<ChunnelSpec> chain{ChunnelSpec("reliable")};
  HelloMsg h = hello_offering_reliable();
  h.dag = wrap(ChunnelSpec("reliable"));
  EXPECT_TRUE(negotiate_server(chain, h, registry, discovery, policy, ads,
                               "host-b")
                  .ok());
  h.dag = wrap(ChunnelSpec("compress"));
  auto bad = negotiate_server(chain, h, registry, discovery, policy, ads,
                              "host-b");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::incompatible);
  h.dag = wrap(ChunnelSpec("reliable"), ChunnelSpec("compress"));
  EXPECT_FALSE(negotiate_server(chain, h, registry, discovery, policy, ads,
                                "host-b")
                   .ok());
}

TEST_F(NegotiationFixture, AdvertisementsMergeIntoArgs) {
  std::vector<ChunnelSpec> chain{ChunnelSpec("reliable")};
  ads["reliable"].set("fastpath_addr", "uds://fp");
  auto r = negotiate_server(chain, hello_offering_reliable(), registry,
                            discovery, policy, ads, "host-b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().chain[0].args.get("fastpath_addr").value(), "uds://fp");
}

TEST_F(NegotiationFixture, AppArgsSurviveMergeUnlessOverridden) {
  ChunnelArgs app;
  app.set("window", "8");
  std::vector<ChunnelSpec> chain{ChunnelSpec("reliable", app)};
  auto r = negotiate_server(chain, hello_offering_reliable(), registry,
                            discovery, policy, ads, "host-b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().chain[0].args.get_u64("window").value(), 8u);
}

TEST_F(NegotiationFixture, ResourceExhaustionFallsBackToNextCandidate) {
  // An accelerated impl that needs a pool slot, plus the plain one.
  auto hw = impl("reliable", "reliable/toe", EndpointConstraint::server,
                 Scope::host, 50);
  hw.resources = {{"nic.toe", 1}};
  ASSERT_TRUE(
      registry.register_impl(std::make_shared<PassthroughChunnel>(hw)).ok());
  ASSERT_TRUE(discovery.set_pool("nic.toe", 1).ok());

  std::vector<ChunnelSpec> chain{ChunnelSpec("reliable")};
  auto first = negotiate_server(chain, hello_offering_reliable(), registry,
                                discovery, policy, ads, "host-b");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().chain[0].impl_name, "reliable/toe");
  EXPECT_EQ(first.value().resource_allocs.size(), 1u);
  EXPECT_EQ(discovery.pool_in_use("nic.toe"), 1u);

  // Second connection: the engine is taken, fall back to software.
  auto second = negotiate_server(chain, hello_offering_reliable(), registry,
                                 discovery, policy, ads, "host-b");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().chain[0].impl_name, "reliable/arq");

  // Releasing makes the engine available again.
  ASSERT_TRUE(discovery.release(first.value().resource_allocs[0]).ok());
  auto third = negotiate_server(chain, hello_offering_reliable(), registry,
                                discovery, policy, ads, "host-b");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().chain[0].impl_name, "reliable/toe");
}

TEST_F(NegotiationFixture, MessagesRoundTrip) {
  HelloMsg h = hello_offering_reliable();
  h.dag = wrap(ChunnelSpec("reliable"));
  auto h2 = decode_hello(encode_hello(h));
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2.value().endpoint_name, h.endpoint_name);
  EXPECT_EQ(h2.value().host_id, h.host_id);
  EXPECT_EQ(h2.value().dag, h.dag);
  ASSERT_EQ(h2.value().offers.size(), 1u);
  EXPECT_EQ(h2.value().offers.at("reliable")[0].name, "reliable/arq");

  AcceptMsg a;
  a.token = 42;
  a.host_id = "srv";
  a.process_id = "p9";
  NegotiatedNode n;
  n.type = "reliable";
  n.impl_name = "reliable/arq";
  n.args.set("k", "v");
  a.chain.push_back(n);
  auto a2 = decode_accept(encode_accept(a));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2.value().token, 42u);
  EXPECT_EQ(a2.value().chain, a.chain);

  RejectMsg rej{static_cast<uint8_t>(Errc::incompatible), "no way"};
  auto r2 = decode_reject(encode_reject(rej));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().reason, "no way");
}

TEST_F(NegotiationFixture, MalformedMessagesRejected) {
  EXPECT_FALSE(decode_hello(to_bytes("junk")).ok());
  EXPECT_FALSE(decode_accept(Bytes{}).ok());
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {

// --- §6 optimizer integration ---

ImplInfo offloadable_impl(std::string type, std::string name,
                          std::set<std::string> commutes) {
  ImplInfo i = impl(std::move(type), std::move(name),
                    EndpointConstraint::both, Scope::host, 10);
  i.props["offloadable"] = "true";
  std::string csv;
  for (const auto& c : commutes) csv += (csv.empty() ? "" : ",") + c;
  i.props["commutes_with"] = csv;
  return i;
}

ImplInfo host_impl(std::string type, std::string name,
                   std::set<std::string> commutes) {
  ImplInfo i = impl(std::move(type), std::move(name),
                    EndpointConstraint::both, Scope::application, 0);
  i.props["offloadable"] = "false";
  std::string csv;
  for (const auto& c : commutes) csv += (csv.empty() ? "" : ",") + c;
  i.props["commutes_with"] = csv;
  return i;
}

struct OptimizedNegotiationFixture : ::testing::Test {
  void add(const ImplInfo& info) {
    ASSERT_TRUE(
        registry.register_impl(std::make_shared<PassthroughChunnel>(info))
            .ok());
    hello.offers[info.type].push_back(info);
  }

  void SetUp() override {
    hello.endpoint_name = "cli";
    hello.host_id = "h";
    hello.process_id = "p";
  }

  Registry registry;
  DiscoveryState discovery;
  DefaultPolicy policy;
  HelloMsg hello;
  std::map<std::string, ChunnelArgs> ads;
};

TEST_F(OptimizedNegotiationFixture, ReordersNicAdjacentStages) {
  // encrypt |> frame |> tcpish with encrypt/tcpish on the NIC: the
  // optimizer must push frame outermost (the paper's 3x -> 1x case).
  add(offloadable_impl("encrypt", "encrypt/nic", {"frame"}));
  add(host_impl("frame", "frame/sw", {"encrypt", "tcpish"}));
  add(offloadable_impl("tcpish", "tcpish/nic", {"frame"}));

  std::vector<ChunnelSpec> chain{ChunnelSpec("encrypt"), ChunnelSpec("frame"),
                                 ChunnelSpec("tcpish")};
  DagOptimizer opt;
  auto r = negotiate_server(chain, hello, registry, discovery, policy, ads,
                            "h", &opt);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  ASSERT_EQ(r.value().chain.size(), 3u);
  EXPECT_EQ(r.value().chain[0].type, "frame");
  EXPECT_EQ(r.value().chain[1].type, "encrypt");
  EXPECT_EQ(r.value().chain[2].type, "tcpish");
}

TEST_F(OptimizedNegotiationFixture, NullOptimizerKeepsOrder) {
  add(offloadable_impl("encrypt", "encrypt/nic", {"frame"}));
  add(host_impl("frame", "frame/sw", {"encrypt", "tcpish"}));
  add(offloadable_impl("tcpish", "tcpish/nic", {"frame"}));
  std::vector<ChunnelSpec> chain{ChunnelSpec("encrypt"), ChunnelSpec("frame"),
                                 ChunnelSpec("tcpish")};
  auto r = negotiate_server(chain, hello, registry, discovery, policy, ads,
                            "h", nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().chain[0].type, "encrypt");
}

TEST_F(OptimizedNegotiationFixture, MergesWhenMergedImplExists) {
  add(host_impl("encrypt", "encrypt/sw", {"frame"}));
  add(host_impl("frame", "frame/sw", {"encrypt", "tcpish"}));
  add(host_impl("tcpish", "tcpish/sw", {"frame"}));
  add(offloadable_impl("tls", "tls/nic", {"frame"}));

  ChunnelSpec enc("encrypt");
  enc.args.set_u64("key", 99);
  std::vector<ChunnelSpec> chain{enc, ChunnelSpec("frame"),
                                 ChunnelSpec("tcpish")};
  DagOptimizer opt;
  opt.add_merge_rule({"encrypt", "tcpish", "tls", true});
  auto r = negotiate_server(chain, hello, registry, discovery, policy, ads,
                            "h", &opt);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  ASSERT_EQ(r.value().chain.size(), 2u);
  EXPECT_EQ(r.value().chain[0].type, "frame");
  EXPECT_EQ(r.value().chain[1].type, "tls");
  // The cipher key from the absorbed encrypt node survives the merge.
  EXPECT_EQ(r.value().chain[1].args.get_u64("key").value(), 99u);
}

TEST_F(OptimizedNegotiationFixture, RewriteAbandonedWithoutMergedImpl) {
  add(host_impl("encrypt", "encrypt/sw", {"frame"}));
  add(host_impl("frame", "frame/sw", {"encrypt", "tcpish"}));
  add(host_impl("tcpish", "tcpish/sw", {"frame"}));
  // No "tls" implementation anywhere: the rewritten chain cannot bind.
  std::vector<ChunnelSpec> chain{ChunnelSpec("encrypt"), ChunnelSpec("frame"),
                                 ChunnelSpec("tcpish")};
  DagOptimizer opt;
  opt.add_merge_rule({"encrypt", "tcpish", "tls", true});
  auto r = negotiate_server(chain, hello, registry, discovery, policy, ads,
                            "h", &opt);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().chain.size(), 3u);  // original binding kept
  EXPECT_EQ(r.value().chain[0].type, "encrypt");
}

TEST_F(OptimizedNegotiationFixture, RewriteReleasesSupersededResources) {
  // The tentatively-chosen encrypt/nic holds a crypto engine; after the
  // merge rewrite wins, that reservation must be returned.
  ASSERT_TRUE(discovery.set_pool("nic.engines", 1).ok());
  ImplInfo enc_nic = offloadable_impl("encrypt", "encrypt/nic", {"frame"});
  enc_nic.resources = {{"nic.engines", 1}};
  add(enc_nic);
  add(host_impl("frame", "frame/sw", {"encrypt", "tcpish"}));
  add(host_impl("tcpish", "tcpish/sw", {"frame"}));
  add(offloadable_impl("tls", "tls/nic", {"frame"}));

  std::vector<ChunnelSpec> chain{ChunnelSpec("encrypt"), ChunnelSpec("frame"),
                                 ChunnelSpec("tcpish")};
  DagOptimizer opt;
  opt.add_merge_rule({"encrypt", "tcpish", "tls", true});
  auto r = negotiate_server(chain, hello, registry, discovery, policy, ads,
                            "h", &opt);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().chain.back().type, "tls");
  EXPECT_EQ(discovery.pool_in_use("nic.engines"), 0u);
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {

TEST(RankCandidatesTest, InstanceScopingFiltersForeignOffloads) {
  DefaultPolicy policy;
  auto for_a = impl("ordered_mcast", "ordered_mcast/switch:g-a",
                    EndpointConstraint::server, Scope::rack, 20);
  for_a.props["instance"] = "grp-a";
  auto for_b = impl("ordered_mcast", "ordered_mcast/software:g-b",
                    EndpointConstraint::server, Scope::global, 5);
  for_b.props["instance"] = "grp-b";
  auto generic = impl("ordered_mcast", "ordered_mcast/any",
                      EndpointConstraint::server, Scope::global, 1);

  ChunnelSpec spec_b("ordered_mcast");
  spec_b.args.set("instance", "grp-b");
  auto ranked = rank_candidates(spec_b, {}, {}, {for_a, for_b, generic},
                                policy, false);
  ASSERT_EQ(ranked.size(), 2u);
  // grp-a's switch is excluded despite its priority; the
  // instance-agnostic impl remains eligible.
  EXPECT_EQ(ranked[0].info.name, "ordered_mcast/software:g-b");
  EXPECT_EQ(ranked[1].info.name, "ordered_mcast/any");

  // A spec with no instance requirement rejects instance-bound entries
  // (they serve someone else's group) but accepts generic ones.
  ChunnelSpec spec_any("ordered_mcast");
  auto ranked_any =
      rank_candidates(spec_any, {}, {}, {for_a, for_b, generic}, policy, false);
  ASSERT_EQ(ranked_any.size(), 1u);
  EXPECT_EQ(ranked_any[0].info.name, "ordered_mcast/any");
}

// --- renegotiate_server (live transitions) ---

struct RenegotiationFixture : NegotiationFixture {
  // Registers the accelerated impl (one pool slot) alongside the
  // software one from the base fixture.
  void register_toe() {
    auto hw = impl("reliable", "reliable/toe", EndpointConstraint::server,
                   Scope::host, 50);
    hw.resources = {{"nic.toe", 1}};
    ASSERT_TRUE(
        registry.register_impl(std::make_shared<PassthroughChunnel>(hw)).ok());
    ASSERT_TRUE(discovery.set_pool("nic.toe", 1).ok());
  }

  std::vector<NodeAlloc> zip_allocs(const NegotiationResult& r) {
    std::vector<NodeAlloc> out;
    for (size_t i = 0; i < r.resource_allocs.size(); i++)
      out.push_back({r.alloc_nodes[i], r.resource_allocs[i]});
    return out;
  }

  const std::vector<ChunnelSpec> chain{ChunnelSpec("reliable")};
};

TEST_F(RenegotiationFixture, KeepsIncumbentWithoutReacquiring) {
  register_toe();
  auto first = negotiate_server(chain, hello_offering_reliable(), registry,
                                discovery, policy, ads, "host-b");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().chain[0].impl_name, "reliable/toe");
  ASSERT_EQ(discovery.pool_in_use("nic.toe"), 1u);

  // The pool is exhausted by the incumbent itself. Re-running selection
  // must not evict it by failing to re-acquire its own slot.
  auto r = renegotiate_server(chain, first.value().chain,
                              zip_allocs(first.value()),
                              hello_offering_reliable(), registry, discovery,
                              policy, ads, "host-b");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_FALSE(r.value().changed);
  EXPECT_EQ(r.value().chain[0].impl_name, "reliable/toe");
  ASSERT_EQ(r.value().kept_allocs.size(), 1u);
  EXPECT_EQ(r.value().kept_allocs[0].alloc_id,
            first.value().resource_allocs[0]);
  EXPECT_TRUE(r.value().new_allocs.empty());
  EXPECT_TRUE(r.value().retired_allocs.empty());
  EXPECT_EQ(discovery.pool_in_use("nic.toe"), 1u);
}

TEST_F(RenegotiationFixture, BanForcesFallbackButDefersRelease) {
  register_toe();
  auto first = negotiate_server(chain, hello_offering_reliable(), registry,
                                discovery, policy, ads, "host-b");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().chain[0].impl_name, "reliable/toe");

  auto r = renegotiate_server(chain, first.value().chain,
                              zip_allocs(first.value()),
                              hello_offering_reliable(), registry, discovery,
                              policy, ads, "host-b",
                              {{"reliable", "reliable/toe"}});
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(r.value().changed);
  EXPECT_EQ(r.value().chain[0].impl_name, "reliable/arq");
  ASSERT_EQ(r.value().retired_allocs.size(), 1u);
  EXPECT_EQ(r.value().retired_allocs[0], first.value().resource_allocs[0]);
  EXPECT_TRUE(r.value().kept_allocs.empty());

  // Drain-before-release: renegotiation itself must not free the slot;
  // the caller releases retired_allocs only after the old chain drains.
  EXPECT_EQ(discovery.pool_in_use("nic.toe"), 1u);
  ASSERT_TRUE(discovery.release(r.value().retired_allocs[0]).ok());
  EXPECT_EQ(discovery.pool_in_use("nic.toe"), 0u);
}

TEST_F(RenegotiationFixture, UpgradesWhenBetterImplAppears) {
  // Start on software; the accelerated impl registers afterwards.
  auto first = negotiate_server(chain, hello_offering_reliable(), registry,
                                discovery, policy, ads, "host-b");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().chain[0].impl_name, "reliable/arq");
  register_toe();

  auto r = renegotiate_server(chain, first.value().chain,
                              zip_allocs(first.value()),
                              hello_offering_reliable(), registry, discovery,
                              policy, ads, "host-b");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(r.value().changed);
  EXPECT_EQ(r.value().chain[0].impl_name, "reliable/toe");
  ASSERT_EQ(r.value().new_allocs.size(), 1u);
  EXPECT_EQ(r.value().new_allocs[0].node, 0u);
  EXPECT_TRUE(r.value().retired_allocs.empty());
  EXPECT_EQ(discovery.pool_in_use("nic.toe"), 1u);
}

// --- one catalogue read per negotiation ---

// Records every catalogue read: query_many() batches and lone query()s.
class ReadCountingDiscovery final : public DiscoveryState {
 public:
  Result<std::vector<ImplInfo>> query(const std::string& type) override {
    singles++;
    return DiscoveryState::query(type);
  }
  QueryOutcomes query_many(const std::vector<std::string>& types) override {
    batches.push_back(types);
    QueryOutcomes out;
    for (const auto& t : types) out.push_back(DiscoveryState::query(t));
    return out;
  }
  std::vector<std::vector<std::string>> batches;
  int singles = 0;
};

TEST(CatalogueReadTest, NegotiationAndRenegotiationReadOnceEach) {
  Registry registry;
  ReadCountingDiscovery discovery;
  DefaultPolicy policy;
  std::map<std::string, ChunnelArgs> ads;
  const std::vector<std::string> types{"serialize", "encrypt", "reliable"};
  std::vector<ChunnelSpec> chain;
  HelloMsg hello;
  for (const auto& t : types) {
    auto info = impl(t, t + "/sw", EndpointConstraint::both);
    ASSERT_TRUE(
        registry.register_impl(std::make_shared<PassthroughChunnel>(info))
            .ok());
    hello.offers[t] = {info};
    chain.emplace_back(t);
  }

  auto first = negotiate_server(chain, hello, registry, discovery, policy, ads,
                                "host-b");
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_EQ(discovery.batches.size(), 1u);
  EXPECT_EQ(discovery.batches[0], types);

  auto again = renegotiate_server(chain, first.value().chain, {}, hello,
                                  registry, discovery, policy, ads, "host-b");
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  ASSERT_EQ(discovery.batches.size(), 2u);
  EXPECT_EQ(discovery.batches[1], types);
  EXPECT_EQ(discovery.singles, 0);
}

}  // namespace
}  // namespace bertha
