// Tests for the registry, the discovery state (entries + resource
// pools), and the discovery wire protocol (server + remote client over
// an in-memory network).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.hpp"
#include "net/memchan.hpp"

namespace bertha {
namespace {

class FakeChunnel final : public ChunnelImpl {
 public:
  FakeChunnel(std::string type, std::string name, int prio = 0) {
    info_.type = std::move(type);
    info_.name = std::move(name);
    info_.priority = prio;
  }
  const ImplInfo& info() const override { return info_; }
  Result<ConnPtr> wrap(ConnPtr inner, WrapContext&) override { return inner; }
  Result<void> init() override {
    inited = true;
    return ok();
  }
  void teardown() override { torn_down = true; }

  bool inited = false;
  bool torn_down = false;

 private:
  ImplInfo info_;
};

TEST(RegistryTest, RegisterLookupUnregister) {
  Registry reg;
  auto impl = std::make_shared<FakeChunnel>("t", "t/x");
  ASSERT_TRUE(reg.register_impl(impl).ok());
  EXPECT_TRUE(impl->inited);
  EXPECT_TRUE(reg.has("t", "t/x"));
  EXPECT_TRUE(reg.lookup("t", "t/x").ok());
  EXPECT_FALSE(reg.lookup("t", "t/y").ok());
  EXPECT_FALSE(reg.lookup("u", "t/x").ok());
  ASSERT_TRUE(reg.unregister_impl("t", "t/x").ok());
  EXPECT_TRUE(impl->torn_down);
  EXPECT_FALSE(reg.has("t", "t/x"));
  EXPECT_FALSE(reg.unregister_impl("t", "t/x").ok());
}

TEST(RegistryTest, DuplicateRejected) {
  Registry reg;
  ASSERT_TRUE(reg.register_impl(std::make_shared<FakeChunnel>("t", "t/x")).ok());
  auto r = reg.register_impl(std::make_shared<FakeChunnel>("t", "t/x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::already_exists);
}

TEST(RegistryTest, NullAndAnonymousRejected) {
  Registry reg;
  EXPECT_FALSE(reg.register_impl(nullptr).ok());
  EXPECT_FALSE(reg.register_impl(std::make_shared<FakeChunnel>("", "")).ok());
}

TEST(RegistryTest, ParameterizedNameFallsBackToBase) {
  Registry reg;
  ASSERT_TRUE(
      reg.register_impl(std::make_shared<FakeChunnel>("m", "m/switch")).ok());
  // Instance-suffixed names resolve to the base factory.
  EXPECT_TRUE(reg.lookup("m", "m/switch:sim://g:7").ok());
  EXPECT_FALSE(reg.lookup("m", "m/other:sim://g:7").ok());
}

TEST(RegistryTest, TypesAndInfos) {
  Registry reg;
  ASSERT_TRUE(reg.register_impl(std::make_shared<FakeChunnel>("a", "a/1")).ok());
  ASSERT_TRUE(reg.register_impl(std::make_shared<FakeChunnel>("a", "a/2")).ok());
  ASSERT_TRUE(reg.register_impl(std::make_shared<FakeChunnel>("b", "b/1")).ok());
  EXPECT_EQ(reg.types().size(), 2u);
  EXPECT_EQ(reg.infos_for("a").size(), 2u);
  EXPECT_EQ(reg.lookup_type("b").size(), 1u);
  EXPECT_TRUE(reg.infos_for("zzz").empty());
}

TEST(DiscoveryStateTest, RegisterQueryUnregister) {
  DiscoveryState state;
  ImplInfo info;
  info.type = "shard";
  info.name = "shard/xdp";
  ASSERT_TRUE(state.register_impl(info).ok());
  auto entries = state.query("shard");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0].name, "shard/xdp");
  EXPECT_TRUE(state.query("nope").value().empty());
  ASSERT_TRUE(state.unregister_impl("shard", "shard/xdp").ok());
  EXPECT_TRUE(state.query("shard").value().empty());
}

TEST(DiscoveryStateTest, ReRegistrationUpdates) {
  DiscoveryState state;
  ImplInfo info;
  info.type = "t";
  info.name = "t/x";
  info.priority = 1;
  ASSERT_TRUE(state.register_impl(info).ok());
  info.priority = 9;
  ASSERT_TRUE(state.register_impl(info).ok());
  auto entries = state.query("t").value();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].priority, 9);
}

TEST(DiscoveryStateTest, ResourcePoolsAllOrNothing) {
  DiscoveryState state;
  ASSERT_TRUE(state.set_pool("switch.slots", 2).ok());
  ASSERT_TRUE(state.set_pool("nic.engines", 1).ok());

  auto a1 = state.acquire({{"switch.slots", 1}, {"nic.engines", 1}});
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(state.pool_in_use("switch.slots"), 1u);
  EXPECT_EQ(state.pool_in_use("nic.engines"), 1u);

  // nic.engines exhausted: the whole acquisition fails, leaving
  // switch.slots untouched.
  auto a2 = state.acquire({{"switch.slots", 1}, {"nic.engines", 1}});
  ASSERT_FALSE(a2.ok());
  EXPECT_EQ(a2.error().code, Errc::resource_exhausted);
  EXPECT_EQ(state.pool_in_use("switch.slots"), 1u);

  ASSERT_TRUE(state.release(a1.value()).ok());
  EXPECT_EQ(state.pool_in_use("switch.slots"), 0u);
  EXPECT_EQ(state.pool_in_use("nic.engines"), 0u);
  EXPECT_FALSE(state.release(a1.value()).ok());  // double release
}

TEST(DiscoveryStateTest, UnknownPoolFails) {
  DiscoveryState state;
  auto r = state.acquire({{"ghost", 1}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
}

TEST(DiscoveryStateTest, CapacityQueryable) {
  DiscoveryState state;
  ASSERT_TRUE(state.set_pool("p", 5).ok());
  EXPECT_EQ(state.pool_capacity("p"), 5u);
  EXPECT_EQ(state.pool_capacity("q"), 0u);
}

// --- wire protocol ---

class RemoteDiscoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = MemNetwork::create();
    state_ = std::make_shared<DiscoveryState>();
    auto st = net_->bind(Addr::mem("discovery", 1));
    ASSERT_TRUE(st.ok());
    server_ = std::make_unique<DiscoveryServer>(std::move(st).value(), state_);
    auto ct = net_->bind(Addr::mem("client", 0));
    ASSERT_TRUE(ct.ok());
    client_ = std::make_unique<RemoteDiscovery>(std::move(ct).value(),
                                                server_->addr());
  }

  std::shared_ptr<MemNetwork> net_;
  std::shared_ptr<DiscoveryState> state_;
  std::unique_ptr<DiscoveryServer> server_;
  std::unique_ptr<RemoteDiscovery> client_;
};

TEST_F(RemoteDiscoveryTest, RegisterAndQueryOverTheWire) {
  ImplInfo info;
  info.type = "encrypt";
  info.name = "encrypt/nic";
  info.priority = 10;
  info.props["device"] = "nic0";
  ASSERT_TRUE(client_->register_impl(info).ok());
  auto entries = client_->query("encrypt");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0], info);
  EXPECT_GE(server_->requests_served(), 2u);
}

TEST_F(RemoteDiscoveryTest, AcquireReleaseOverTheWire) {
  ASSERT_TRUE(client_->set_pool("pool", 1).ok());
  auto a = client_->acquire({{"pool", 1}});
  ASSERT_TRUE(a.ok());
  auto b = client_->acquire({{"pool", 1}});
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.error().code, Errc::resource_exhausted);
  ASSERT_TRUE(client_->release(a.value()).ok());
  EXPECT_TRUE(client_->acquire({{"pool", 1}}).ok());
}

TEST_F(RemoteDiscoveryTest, ErrorsPropagateWithCode) {
  auto r = client_->unregister_impl("ghost", "ghost/x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
}

TEST_F(RemoteDiscoveryTest, UnreachableServerTimesOut) {
  auto ct = net_->bind(Addr::mem("client2", 0));
  ASSERT_TRUE(ct.ok());
  RemoteDiscovery::Options opts;
  opts.rpc_timeout = ms(30);
  opts.retries = 1;
  RemoteDiscovery lost(std::move(ct).value(), Addr::mem("nowhere", 9), opts);
  auto r = lost.query("x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unavailable);
}

// --- watch subscriptions ---

ImplInfo watch_info(const std::string& type, const std::string& name,
                    int prio = 0) {
  ImplInfo i;
  i.type = type;
  i.name = name;
  i.priority = prio;
  return i;
}

TEST(DiscoveryWatchTest, DeliversRegisterAndUnregister) {
  DiscoveryState state;
  auto w = state.watch("").value();
  ASSERT_TRUE(state.register_impl(watch_info("encrypt", "encrypt/nic", 7)).ok());
  auto ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok()) << ev.error().to_string();
  EXPECT_EQ(ev.value().kind, WatchKind::impl_registered);
  EXPECT_EQ(ev.value().type, "encrypt");
  EXPECT_EQ(ev.value().name, "encrypt/nic");
  ASSERT_TRUE(ev.value().info.has_value());
  EXPECT_EQ(ev.value().info->priority, 7);

  ASSERT_TRUE(state.unregister_impl("encrypt", "encrypt/nic").ok());
  ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::impl_unregistered);
  EXPECT_EQ(ev.value().name, "encrypt/nic");
}

TEST(DiscoveryWatchTest, TypeFilterSelectsImplEventsOnly) {
  DiscoveryState state;
  ASSERT_TRUE(state.set_pool("p", 1).ok());
  auto w = state.watch("shard").value();
  ASSERT_TRUE(state.register_impl(watch_info("encrypt", "encrypt/nic")).ok());
  auto alloc = state.acquire({{"p", 1}}).value();
  ASSERT_TRUE(state.release(alloc).ok());  // pool_freed: filtered out
  ASSERT_TRUE(state.register_impl(watch_info("shard", "shard/xdp")).ok());
  auto ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().name, "shard/xdp");  // encrypt + pool skipped
  EXPECT_FALSE(w->try_next().has_value());
}

TEST(DiscoveryWatchTest, PoolFreedOnReleaseAndCapacityGrowth) {
  DiscoveryState state;
  ASSERT_TRUE(state.set_pool("nic.engines", 1).ok());
  auto w = state.watch("").value();
  auto alloc = state.acquire({{"nic.engines", 1}}).value();
  ASSERT_TRUE(state.release(alloc).ok());
  auto ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::pool_freed);
  EXPECT_EQ(ev.value().pool, "nic.engines");
  EXPECT_EQ(ev.value().available, 1u);

  // Growing a pool's capacity is also "slots came free".
  ASSERT_TRUE(state.set_pool("nic.engines", 3).ok());
  ev = w->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::pool_freed);
  EXPECT_EQ(ev.value().available, 3u);
}

TEST(DiscoveryWatchTest, WatcherOutlivesItsSource) {
  WatcherPtr w;
  {
    DiscoveryState state;
    w = state.watch("").value();
    ASSERT_TRUE(state.register_impl(watch_info("t", "t/x")).ok());
  }
  // Buffered events still drain, then the watcher reports cancelled.
  auto ev = w->next(Deadline::after(ms(200)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::impl_registered);
  auto end = w->next(Deadline::after(ms(200)));
  ASSERT_FALSE(end.ok());
  EXPECT_EQ(end.error().code, Errc::cancelled);
  EXPECT_TRUE(w->cancelled());
}

TEST(DiscoveryWatchTest, SubscribeThenImmediateRevoke) {
  // A watcher subscribed between a registration and its revocation sees
  // only the revocation — and consuming after cancel still works.
  DiscoveryState state;
  ASSERT_TRUE(state.register_impl(watch_info("t", "t/x")).ok());
  auto w = state.watch("t").value();
  ASSERT_TRUE(state.unregister_impl("t", "t/x").ok());
  w->cancel();
  auto ev = w->next(Deadline::after(ms(200)));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, WatchKind::impl_unregistered);
  EXPECT_FALSE(w->next(Deadline::after(ms(50))).ok());
}

TEST(DiscoveryWatchTest, SeqStrictlyIncreasesUnderConcurrentRegistrations) {
  DiscoveryState state;
  auto w = state.watch("").value();
  constexpr int kPerThread = 50;
  auto reg = [&](const std::string& prefix) {
    for (int i = 0; i < kPerThread; i++) {
      ASSERT_TRUE(
          state.register_impl(watch_info("t", prefix + std::to_string(i)))
              .ok());
    }
  };
  std::thread a(reg, "t/a");
  std::thread b(reg, "t/b");
  a.join();
  b.join();
  uint64_t last_seq = 0;
  int got = 0;
  for (;;) {
    auto ev = w->try_next();
    if (!ev) break;
    EXPECT_GT(ev->seq, last_seq);
    last_seq = ev->seq;
    got++;
  }
  EXPECT_EQ(got + static_cast<int>(w->dropped()), 2 * kPerThread);
  EXPECT_EQ(w->dropped(), 0u);  // capacity 256 > 100 events
}

TEST(DiscoveryWatchTest, SlowConsumerDropsAreCounted) {
  DiscoveryState state;
  auto w = state.watch("").value();
  for (int i = 0; i < 300; i++)
    ASSERT_TRUE(state.register_impl(watch_info("t", "t/" + std::to_string(i)))
                    .ok());
  EXPECT_GT(w->dropped(), 0u);
  int got = 0;
  while (w->try_next()) got++;
  EXPECT_EQ(got + static_cast<int>(w->dropped()), 300);
}

TEST(DiscoveryWatchTest, SinkSetDuringDeliveryLosesNothing) {
  // A relay sets its sink while producers are already delivering on
  // other threads: every batch reaches the sink, each producer's in
  // order, whether it was queued before the sink was set or delivered
  // after. Several producers, so the sink can land while one is between
  // its sink check and its queue push.
  constexpr int kProducers = 8;
  constexpr uint64_t kBatches = 1000;
  for (int round = 0; round < 50; round++) {
    DiscoveryWatcher w("", kProducers * kBatches);  // room for all
    std::atomic<uint64_t> delivered{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++) {
      producers.emplace_back([&, p] {
        for (uint64_t seq = 1; seq <= kBatches; seq++) {
          WatchEvent ev;
          ev.name = std::to_string(p);
          ev.seq = seq;
          w.deliver_batch({ev});
          delivered.fetch_add(1);
        }
      });
    }
    while (delivered.load() < kBatches) std::this_thread::yield();
    // Sink calls are serialised, so `seen` needs no lock.
    std::vector<std::vector<uint64_t>> seen(kProducers);
    w.set_sink([&](std::vector<WatchEvent> evs) {
      for (auto& ev : evs) seen[std::stoi(ev.name)].push_back(ev.seq);
    });
    for (auto& t : producers) t.join();
    for (int p = 0; p < kProducers; p++) {
      ASSERT_EQ(seen[p].size(), kBatches) << "round " << round;
      for (uint64_t i = 0; i < kBatches; i++)
        ASSERT_EQ(seen[p][i], i + 1) << "round " << round;
    }
  }
}

TEST_F(RemoteDiscoveryTest, WatchWithoutFilterUsesServerPush) {
  // An unfiltered remote watch subscribes to the server's push and sees
  // events of every chunnel type.
  auto w = client_->watch("").value();
  ASSERT_TRUE(state_->register_impl(watch_info("encrypt", "encrypt/nic", 1))
                  .ok());
  auto ev = w->next(Deadline::after(seconds(2)));
  ASSERT_TRUE(ev.ok()) << ev.error().to_string();
  EXPECT_EQ(ev.value().name, "encrypt/nic");
}

}  // namespace
}  // namespace bertha
