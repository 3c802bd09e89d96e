// Fault-tolerance building blocks: exponential backoff, the fault-
// injecting transport, idempotent discovery RPCs (exactly-once retried
// mutations), leases with heartbeat renewal and expiry, and degraded-mode
// discovery caching.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/discovery_cache.hpp"
#include "net/fault.hpp"
#include "test_helpers.hpp"
#include "util/backoff.hpp"

namespace bertha {
namespace {

using testing_support::process_threads;
using testing_support::TestWorld;

// --- ExponentialBackoff ---

TEST(BackoffTest, GrowsGeometricallyAndCaps) {
  ExponentialBackoff::Options o;
  o.base = ms(10);
  o.multiplier = 2.0;
  o.max = ms(80);
  o.jitter = 0.0;  // deterministic delays
  ExponentialBackoff b(o, 42);
  EXPECT_EQ(b.next(), ms(10));
  EXPECT_EQ(b.next(), ms(20));
  EXPECT_EQ(b.next(), ms(40));
  EXPECT_EQ(b.next(), ms(80));
  EXPECT_EQ(b.next(), ms(80));  // capped
  EXPECT_EQ(b.attempts(), 5);
  b.reset();
  EXPECT_EQ(b.attempts(), 0);
  EXPECT_EQ(b.next(), ms(10));
}

TEST(BackoffTest, JitterStaysWithinBounds) {
  ExponentialBackoff::Options o;
  o.base = ms(100);
  o.multiplier = 1.0;  // keep the step fixed; test only the jitter draw
  o.max = ms(200);
  o.jitter = 0.5;
  ExponentialBackoff b(o, 7);
  for (int i = 0; i < 200; i++) {
    Duration d = b.next();
    EXPECT_GE(d, ms(50));
    EXPECT_LE(d, ms(150));
  }
}

TEST(BackoffTest, SeedsProduceDistinctSchedules) {
  ExponentialBackoff::Options o;  // default jitter 0.5
  ExponentialBackoff a(o, 1), b(o, 2);
  bool differed = false;
  for (int i = 0; i < 16 && !differed; i++) differed = a.next() != b.next();
  EXPECT_TRUE(differed) << "two clients retried in lockstep";
}

TEST(BackoffTest, DegenerateOptionsAreClamped) {
  ExponentialBackoff::Options o;
  o.base = ms(0);
  o.max = Duration::zero() - ms(5);
  o.multiplier = 0.1;
  o.jitter = 9.0;
  ExponentialBackoff b(o, 3);
  Duration d = b.next();
  EXPECT_GT(d, Duration::zero());
  EXPECT_LE(d, ms(2));  // base clamped to 1ms, jitter to 1.0
}

// --- FaultInjectingTransport ---

Bytes payload_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string str_of(const Bytes& b) { return std::string(b.begin(), b.end()); }

TEST(FaultTransportTest, DropAllBlackholesTheLink) {
  auto net = MemNetwork::create();
  FaultInjectingTransport::Options fo;
  fo.drop = 1.0;
  FaultInjectingTransport a(net->bind(Addr::mem("a", 1)).value(), fo);
  auto b = net->bind(Addr::mem("b", 1)).value();

  ASSERT_TRUE(a.send_to(b->local_addr(), payload_of("x")).ok());
  EXPECT_FALSE(b->recv(Deadline::after(ms(30))).ok());
  EXPECT_EQ(a.counters().tx_dropped, 1u);
}

TEST(FaultTransportTest, DuplicateDeliversTwice) {
  auto net = MemNetwork::create();
  FaultInjectingTransport::Options fo;
  fo.duplicate = 1.0;
  FaultInjectingTransport a(net->bind(Addr::mem("a", 1)).value(), fo);
  auto b = net->bind(Addr::mem("b", 1)).value();

  ASSERT_TRUE(a.send_to(b->local_addr(), payload_of("d")).ok());
  auto r1 = b->recv(Deadline::after(seconds(1)));
  auto r2 = b->recv(Deadline::after(seconds(1)));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(str_of(r1.value().payload), "d");
  EXPECT_EQ(str_of(r2.value().payload), "d");
  EXPECT_EQ(a.counters().tx_duplicated, 1u);
}

TEST(FaultTransportTest, ReorderSwapsAdjacentSends) {
  auto net = MemNetwork::create();
  FaultInjectingTransport::Options fo;
  fo.reorder = 1.0;
  FaultInjectingTransport a(net->bind(Addr::mem("a", 1)).value(), fo);
  auto b = net->bind(Addr::mem("b", 1)).value();

  ASSERT_TRUE(a.send_to(b->local_addr(), payload_of("m1")).ok());
  ASSERT_TRUE(a.send_to(b->local_addr(), payload_of("m2")).ok());
  auto r1 = b->recv(Deadline::after(seconds(1)));
  auto r2 = b->recv(Deadline::after(seconds(1)));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(str_of(r1.value().payload), "m2");
  EXPECT_EQ(str_of(r2.value().payload), "m1");
}

TEST(FaultTransportTest, OneWayPartitionAndHeal) {
  auto net = MemNetwork::create();
  FaultInjectingTransport a(net->bind(Addr::mem("a", 1)).value(), {});
  auto b = net->bind(Addr::mem("b", 1)).value();

  a.partition(/*tx=*/true, /*rx=*/false);
  ASSERT_TRUE(a.send_to(b->local_addr(), payload_of("lost")).ok());
  EXPECT_FALSE(b->recv(Deadline::after(ms(30))).ok());
  // The rx direction still works.
  ASSERT_TRUE(b->send_to(a.local_addr(), payload_of("in")).ok());
  auto in = a.recv(Deadline::after(seconds(1)));
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(str_of(in.value().payload), "in");

  a.partition(false, false);  // heal
  ASSERT_TRUE(a.send_to(b->local_addr(), payload_of("back")).ok());
  auto back = b->recv(Deadline::after(seconds(1)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(str_of(back.value().payload), "back");
}

TEST(FaultTransportTest, DelayedDatagramsStillArrive) {
  auto net = MemNetwork::create();
  FaultInjectingTransport::Options fo;
  fo.delay = 1.0;
  fo.delay_min = ms(5);
  fo.delay_max = ms(20);
  FaultInjectingTransport a(net->bind(Addr::mem("a", 1)).value(), fo);
  auto b = net->bind(Addr::mem("b", 1)).value();

  ASSERT_TRUE(a.send_to(b->local_addr(), payload_of("slow")).ok());
  auto r = b->recv(Deadline::after(seconds(2)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(str_of(r.value().payload), "slow");
  EXPECT_EQ(a.counters().tx_delayed, 1u);
}

// Each delayed datagram is one process_wheel() entry: the decorator
// starts no timer thread of its own.
TEST(FaultTransportTest, DelayedSendsAddNoThreads) {
  (void)process_wheel();  // the one shared tick thread, started up front
  int before = process_threads();
  auto net = MemNetwork::create();
  FaultInjectingTransport::Options fo;
  fo.delay = 1.0;
  fo.delay_min = ms(1);
  fo.delay_max = ms(10);
  FaultInjectingTransport a(net->bind(Addr::mem("a", 1)).value(), fo);
  auto b = net->bind(Addr::mem("b", 1)).value();
  for (int i = 0; i < 8; i++)
    ASSERT_TRUE(a.send_to(b->local_addr(), payload_of("d")).ok());
  EXPECT_EQ(process_threads(), before);
  for (int i = 0; i < 8; i++)
    ASSERT_TRUE(b->recv(Deadline::after(seconds(2))).ok()) << "datagram " << i;
  EXPECT_EQ(a.counters().tx_delayed, 8u);
}

TEST(FaultTransportTest, RecvFilterDropsSelectedPackets) {
  auto net = MemNetwork::create();
  FaultInjectingTransport a(net->bind(Addr::mem("a", 1)).value(), {});
  auto b = net->bind(Addr::mem("b", 1)).value();

  std::atomic<int> dropped{0};
  a.set_recv_filter([&](const Addr&, BytesView p) {
    if (p.size() == 3) return false;
    dropped++;
    return true;
  });
  ASSERT_TRUE(b->send_to(a.local_addr(), payload_of("die")).ok());   // kept
  ASSERT_TRUE(b->send_to(a.local_addr(), payload_of("longer")).ok());  // drop
  ASSERT_TRUE(b->send_to(a.local_addr(), payload_of("yes")).ok());   // kept
  auto r1 = a.recv(Deadline::after(seconds(1)));
  auto r2 = a.recv(Deadline::after(seconds(1)));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(str_of(r1.value().payload), "die");
  EXPECT_EQ(str_of(r2.value().payload), "yes");
  EXPECT_EQ(dropped.load(), 1);
  EXPECT_EQ(a.counters().rx_dropped, 1u);
}

// --- idempotent retried mutations ---

ImplInfo impl_of(const std::string& type, const std::string& name,
                 std::vector<ResourceReq> res = {}) {
  ImplInfo i;
  i.type = type;
  i.name = name;
  i.scope = Scope::host;
  i.endpoints = EndpointConstraint::server;
  i.priority = 10;
  i.resources = std::move(res);
  return i;
}

// The acquire-retry double-allocation regression: the response to the
// first acquire is lost, the client retries with the same idempotency
// key, and the server answers from its dedup cache — one allocation, not
// two, and the pool stays balanced after a single release.
// --- batched I/O through the fault pipeline ---
//
// send_batch/recv_batch must draw the same per-datagram fault decisions
// as the scalar paths: a batched sender is chaos-tested exactly like an
// unbatched one.

TEST(FaultBatchTest, BatchSendDropsEachDatagramIndependently) {
  auto net = MemNetwork::create();
  FaultInjectingTransport::Options fo;
  fo.drop = 1.0;
  FaultInjectingTransport a(net->bind(Addr::mem("a", 1)).value(), fo);
  auto b = net->bind(Addr::mem("b", 1)).value();

  std::vector<Datagram> batch(4);
  for (auto& d : batch) {
    d.dst = b->local_addr();
    d.payload.assign(payload_of("x"));
  }
  auto sent = a.send_batch(batch);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value(), 4u);  // silent drops still count as handled
  EXPECT_EQ(a.counters().tx_dropped, 4u);
  EXPECT_FALSE(b->recv(Deadline::after(ms(30))).ok());
}

TEST(FaultBatchTest, BatchRecvDuplicatesPerDatagram) {
  auto net = MemNetwork::create();
  auto a = net->bind(Addr::mem("a", 1)).value();
  FaultInjectingTransport::Options fo;
  fo.duplicate = 1.0;
  FaultInjectingTransport b(net->bind(Addr::mem("b", 1)).value(), fo);

  for (int i = 0; i < 3; i++)
    ASSERT_TRUE(a->send_to(b.local_addr(), payload_of("d")).ok());
  size_t got = 0;
  std::vector<Datagram> in(16);
  while (got < 6) {  // every datagram delivered twice
    auto n = b.recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
    ASSERT_TRUE(n.ok());
    got += n.value();
  }
  EXPECT_EQ(got, 6u);
  EXPECT_EQ(b.counters().rx_duplicated, 3u);
  EXPECT_EQ(b.counters().received, 6u);
}

TEST(FaultBatchTest, BatchRecvReordersLikeScalarRecv) {
  auto net = MemNetwork::create();
  auto a = net->bind(Addr::mem("a", 1)).value();
  FaultInjectingTransport::Options fo;
  fo.reorder = 1.0;
  FaultInjectingTransport b(net->bind(Addr::mem("b", 1)).value(), fo);

  ASSERT_TRUE(a->send_to(b.local_addr(), payload_of("m1")).ok());
  ASSERT_TRUE(a->send_to(b.local_addr(), payload_of("m2")).ok());
  std::vector<std::string> order;
  std::vector<Datagram> in(8);
  while (order.size() < 2) {
    auto n = b.recv_batch(std::span<Datagram>(in), Deadline::after(seconds(5)));
    ASSERT_TRUE(n.ok());
    for (size_t i = 0; i < n.value(); i++)
      order.push_back(to_string(in[i].payload.view()));
  }
  EXPECT_EQ(order[0], "m2");  // the pair arrives swapped, same as recv()
  EXPECT_EQ(order[1], "m1");
}

TEST(FaultBatchTest, BatchRecvDropsAndPartitions) {
  auto net = MemNetwork::create();
  auto a = net->bind(Addr::mem("a", 1)).value();
  FaultInjectingTransport b(net->bind(Addr::mem("b", 1)).value(), {});
  b.partition(/*tx=*/false, /*rx=*/true);
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(a->send_to(b.local_addr(), payload_of("p")).ok());
  std::vector<Datagram> in(8);
  auto n = b.recv_batch(std::span<Datagram>(in), Deadline::after(ms(50)));
  ASSERT_FALSE(n.ok());  // all dropped; the wait times out
  EXPECT_EQ(n.error().code, Errc::timed_out);
  EXPECT_EQ(b.counters().rx_dropped, 5u);
}

TEST(IdempotentRpcTest, AcquireRetryDoesNotDoubleAllocate) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state->set_pool("pool.x", 4).ok());
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state);

  FaultInjectingTransport::Options fo;  // no probabilistic faults
  auto* fault = new FaultInjectingTransport(
      net->bind(Addr::mem("cli", 0)).value(), fo);
  std::atomic<bool> drop_next_rsp{false};
  fault->set_recv_filter([&](const Addr&, BytesView) {
    return drop_next_rsp.exchange(false);
  });

  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(100);
  ro.retries = 3;
  ro.backoff = {ms(5), 2.0, ms(20), 0.1};
  RemoteDiscovery client(TransportPtr(fault), server.addr(), ro);

  drop_next_rsp = true;
  auto id = client.acquire({{"pool.x", 1}});
  ASSERT_TRUE(id.ok()) << id.error().to_string();

  EXPECT_EQ(server.dedup_hits(), 1u) << "retry was not answered from cache";
  EXPECT_EQ(state->live_allocs(), 1u) << "retried acquire leaked a slot";
  EXPECT_EQ(state->pool_in_use("pool.x"), 1u);

  ASSERT_TRUE(client.release(id.value()).ok());
  EXPECT_EQ(state->live_allocs(), 0u);
  EXPECT_EQ(state->pool_in_use("pool.x"), 0u);
}

TEST(IdempotentRpcTest, RegisterRetryIsDeduplicated) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state);

  auto* fault = new FaultInjectingTransport(
      net->bind(Addr::mem("cli", 0)).value(), {});
  std::atomic<bool> drop_next_rsp{false};
  fault->set_recv_filter([&](const Addr&, BytesView) {
    return drop_next_rsp.exchange(false);
  });
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(100);
  ro.retries = 3;
  ro.backoff = {ms(5), 2.0, ms(20), 0.1};
  RemoteDiscovery client(TransportPtr(fault), server.addr(), ro);

  drop_next_rsp = true;
  ASSERT_TRUE(client.register_impl(impl_of("offload", "offload/hw")).ok());
  EXPECT_EQ(server.dedup_hits(), 1u);
  // A dedup'd re-register must not have turned into a duplicate entry.
  auto q = client.query("offload");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().size(), 1u);
}

// --- leases: expiry, heartbeat renewal, watch events ---

TEST(LeaseTest, ExpiryReclaimsStateAndEmitsWatchEvents) {
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state->set_pool("pool.x", 2).ok());
  auto watch = state->watch("");  // all events
  ASSERT_TRUE(watch.ok());

  ASSERT_TRUE(state
                  ->register_impl_leased(impl_of("offload", "offload/hw"),
                                         "client-1", ms(60))
                  .ok());
  auto alloc = state->acquire_leased({{"pool.x", 1}}, "client-1", ms(60));
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(state->lease_count(), 1u);

  // Consume the registration event.
  auto reg_ev = watch.value()->next(Deadline::after(seconds(1)));
  ASSERT_TRUE(reg_ev.ok());
  EXPECT_EQ(reg_ev.value().kind, WatchKind::impl_registered);

  // No heartbeat: the sweeper reclaims everything within a few TTLs.
  bool saw_unregister = false, saw_pool_freed = false;
  Deadline dl = Deadline::after(seconds(2));
  while (!(saw_unregister && saw_pool_freed)) {
    auto ev = watch.value()->next(dl);
    ASSERT_TRUE(ev.ok()) << "lease expiry events never arrived";
    if (ev.value().kind == WatchKind::impl_unregistered &&
        ev.value().name == "offload/hw")
      saw_unregister = true;
    if (ev.value().kind == WatchKind::pool_freed && ev.value().pool == "pool.x")
      saw_pool_freed = true;
  }
  EXPECT_EQ(state->lease_count(), 0u);
  EXPECT_EQ(state->live_allocs(), 0u);
  EXPECT_EQ(state->pool_in_use("pool.x"), 0u);
  EXPECT_TRUE(state->query("offload").value().empty());
}

TEST(LeaseTest, HeartbeatKeepsTheLeaseAlive) {
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state
                  ->register_impl_leased(impl_of("offload", "offload/hw"),
                                         "client-1", ms(80))
                  .ok());
  for (int i = 0; i < 8; i++) {
    sleep_for(ms(30));
    ASSERT_TRUE(state->heartbeat("client-1").ok());
  }
  // 240ms elapsed (3 TTLs) but the lease was renewed throughout.
  EXPECT_EQ(state->lease_count(), 1u);
  EXPECT_EQ(state->query("offload").value().size(), 1u);

  EXPECT_EQ(state->heartbeat("nobody").error().code, Errc::not_found);
}

// Lease expiry is one process_wheel() entry re-armed at the earliest
// expiry, not a sweeper thread per state.
TEST(LeaseTest, LeasedStateAddsNoThreads) {
  (void)process_wheel();
  int before = process_threads();
  auto state = std::make_shared<DiscoveryState>();
  for (int i = 0; i < 4; i++) {
    std::string owner = "client-" + std::to_string(i);
    ASSERT_TRUE(state
                    ->register_impl_leased(
                        impl_of("offload", "offload/" + owner), owner,
                        ms(40 + 20 * i))
                    .ok());
  }
  EXPECT_EQ(process_threads(), before);
  // The later leases are still reaped after the earliest fires.
  Deadline dl = Deadline::after(seconds(2));
  while (state->lease_count() > 0 && !dl.expired()) sleep_for(ms(5));
  EXPECT_EQ(state->lease_count(), 0u);
  EXPECT_TRUE(state->query("offload").value().empty());
}

// Kill-the-client: a RemoteDiscovery with a lease registers state and
// then dies. The service must reclaim within ~2 lease periods, emitting
// the watch events live connections renegotiate on.
TEST(LeaseTest, DeadClientStateExpiresWithinTwoLeasePeriods) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state->set_pool("pool.x", 2).ok());
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state);
  auto watch = state->watch("");
  ASSERT_TRUE(watch.ok());

  const Duration ttl = ms(150);
  {
    RemoteDiscovery::Options ro;
    ro.rpc_timeout = ms(200);
    ro.lease_ttl = ttl;
    RemoteDiscovery client(net->bind(Addr::mem("cli", 0)).value(),
                           server.addr(), ro);
    ASSERT_TRUE(client.register_impl(impl_of("offload", "offload/hw")).ok());
    ASSERT_TRUE(client.acquire({{"pool.x", 1}}).ok());
    EXPECT_EQ(state->lease_count(), 1u);
    // Outlive a TTL while heartbeating: nothing must expire.
    sleep_for(ttl + ms(50));
    EXPECT_EQ(state->lease_count(), 1u) << "heartbeat failed to renew";
    (void)watch.value()->try_next();  // drain the registration event
  }  // client destroyed: heartbeats stop

  TimePoint died = now();
  bool saw_unregister = false, saw_pool_freed = false;
  Deadline dl = Deadline::after(seconds(3));
  while (!(saw_unregister && saw_pool_freed)) {
    auto ev = watch.value()->next(dl);
    ASSERT_TRUE(ev.ok()) << "dead client's state never expired";
    if (ev.value().kind == WatchKind::impl_unregistered) saw_unregister = true;
    if (ev.value().kind == WatchKind::pool_freed) saw_pool_freed = true;
  }
  EXPECT_LE(now() - died, 2 * ttl + ms(100))
      << "expiry took more than ~2 lease periods";
  EXPECT_EQ(state->lease_count(), 0u);
  EXPECT_EQ(state->live_allocs(), 0u);
  EXPECT_EQ(state->pool_in_use("pool.x"), 0u);
}

// --- degraded-mode discovery (CachingDiscovery) ---

TEST(CachingDiscoveryTest, ServesCachedCatalogueWhileUnreachable) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state->register_impl(impl_of("offload", "offload/hw")).ok());
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state);

  auto* fault = new FaultInjectingTransport(
      net->bind(Addr::mem("cli", 0)).value(), {});
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(60);
  ro.retries = 0;
  auto remote = std::make_shared<RemoteDiscovery>(TransportPtr(fault),
                                                  server.addr(), ro);
  auto stats = std::make_shared<FaultStats>();
  CachingDiscovery::Options co;
  co.probe_period = ms(50);
  CachingDiscovery cache(remote, co, stats);

  // Healthy: query populates the cache.
  auto q1 = cache.query("offload");
  ASSERT_TRUE(q1.ok());
  ASSERT_EQ(q1.value().size(), 1u);
  EXPECT_FALSE(cache.degraded());

  fault->partition(true, true);
  auto q2 = cache.query("offload");
  ASSERT_TRUE(q2.ok()) << "cached catalogue not served during outage";
  EXPECT_EQ(q2.value().size(), 1u);
  EXPECT_TRUE(cache.degraded());
  EXPECT_GE(stats->degraded_entries.load(), 1u);
  EXPECT_GE(stats->catalogue_hits.load(), 1u);

  // A type never seen: empty success, so negotiation can still bind
  // local software fallbacks.
  auto q3 = cache.query("never-seen");
  ASSERT_TRUE(q3.ok());
  EXPECT_TRUE(q3.value().empty());

  // Recovery: the probe notices, degraded() clears, and unfiltered
  // watchers get the synthetic recovery event.
  auto w = cache.watch("");
  ASSERT_TRUE(w.ok());
  fault->partition(false, false);
  auto ev = w.value()->next(Deadline::after(seconds(3)));
  ASSERT_TRUE(ev.ok()) << "no recovery event after heal";
  EXPECT_EQ(ev.value().name, kDiscoveryRecoveredEvent);
  EXPECT_FALSE(cache.degraded());
  EXPECT_GE(stats->degraded_exits.load(), 1u);
}

// A batched read goes out as one frame; during an outage the whole batch
// is served from the cache (cold types as empty successes), and the
// batch enters degraded mode once.
TEST(CachingDiscoveryTest, ServesDegradedBatchFromCache) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  ASSERT_TRUE(state->register_impl(impl_of("offload", "offload/hw")).ok());
  ASSERT_TRUE(state->register_impl(impl_of("crypt", "crypt/hw")).ok());
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state);

  auto* fault = new FaultInjectingTransport(
      net->bind(Addr::mem("cli", 0)).value(), {});
  RemoteDiscovery::Options ro;
  ro.rpc_timeout = ms(60);
  ro.retries = 0;
  auto remote = std::make_shared<RemoteDiscovery>(TransportPtr(fault),
                                                  server.addr(), ro);
  auto stats = std::make_shared<FaultStats>();
  CachingDiscovery::Options co;
  co.probe_period = seconds(10);  // no probe recovery mid-test
  CachingDiscovery cache(remote, co, stats);

  auto warm = cache.query_many({"offload", "crypt"});
  ASSERT_EQ(warm.size(), 2u);
  ASSERT_TRUE(warm[0].ok() && warm[1].ok());
  EXPECT_EQ(fault->counters().sent, 1u) << "a batch is one frame";
  EXPECT_FALSE(cache.degraded());

  fault->partition(true, true);
  auto out = cache.query_many({"offload", "crypt", "never-seen"});
  ASSERT_EQ(out.size(), 3u);
  for (const auto& r : out) ASSERT_TRUE(r.ok()) << r.error().to_string();
  ASSERT_EQ(out[0].value().size(), 1u);
  EXPECT_EQ(out[0].value()[0].name, "offload/hw");
  ASSERT_EQ(out[1].value().size(), 1u);
  EXPECT_EQ(out[1].value()[0].name, "crypt/hw");
  EXPECT_TRUE(out[2].value().empty());
  EXPECT_TRUE(cache.degraded());
  EXPECT_EQ(stats->degraded_entries.load(), 1u);
  EXPECT_EQ(stats->catalogue_hits.load(), 2u);
}

// Inner watch streams are relayed by their producer: 16 watches add no
// forwarder threads, and every one of them still sees the inner events.
TEST(CachingDiscoveryTest, WatchesRelayInlineWithoutThreads) {
  auto state = std::make_shared<DiscoveryState>();
  CachingDiscovery cache(state);
  int before = process_threads();
  std::vector<WatcherPtr> ws;
  for (int i = 0; i < 16; i++) ws.push_back(cache.watch("offload").value());
  EXPECT_EQ(process_threads(), before);
  ASSERT_TRUE(state->register_impl(impl_of("offload", "offload/hw")).ok());
  for (auto& w : ws) {
    auto ev = w->next(Deadline::after(seconds(1)));
    ASSERT_TRUE(ev.ok());
    EXPECT_EQ(ev.value().name, "offload/hw");
  }
}

// --- runtime wiring ---

TEST(FaultStatsTest, RuntimeExposesCounters) {
  auto world = TestWorld::make();
  auto rt = world.runtime("h1", /*builtins=*/false);
  EXPECT_EQ(rt->fault_stats().rpc_retries.load(), 0u);
  rt->fault_stats().rpc_retries++;
  EXPECT_NE(rt->fault_stats().to_string().find("rpc_retries"),
            std::string::npos);
  // A default-created discovery state shares the runtime's counters.
  RuntimeConfig cfg;
  cfg.host_id = "h2";
  cfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h2");
  auto rt2 = Runtime::create(std::move(cfg)).value();
  auto* state = dynamic_cast<DiscoveryState*>(&rt2->discovery());
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->fault_stats().get(), rt2->fault_stats_ptr().get());
}

}  // namespace
}  // namespace bertha
