// Connection-scale regressions: the properties that let one listener
// carry 100k+ connections.
//
//  - Churn leaves no residue: the sharded server connection table and
//    the client routing table return to zero entries after every
//    connection closes — the by_token_ dead-weak_ptr leak regression.
//  - Idle is free: past warmup, an additional idle connection costs
//    zero threads, and an idle fleet allocates nothing while parked
//    (per-binary counting operator new, io_test technique).
//  - Golden verdicts: under a seeded lossy-network storm, wheel-driven
//    keepalives condemn every vanished peer and keep every live one, and
//    wheel-driven lease heartbeats keep discovery leases alive, on a
//    runtime's wheel and on the process wheel alike.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "chunnels/keepalive.hpp"
#include "core/discovery.hpp"
#include "io/timer_wheel.hpp"
#include "test_helpers.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BERTHA_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define BERTHA_TSAN 1
#endif

// --- counting allocator hooks (per-binary, io_test technique) ---------

static std::atomic<uint64_t> g_allocs{0};

void* operator new(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace bertha {
namespace {

using testing_support::FixedPeerConnection;
using testing_support::process_threads;
using testing_support::TestWorld;

// Poll until `pred` holds or the deadline passes (close frames and
// table removals are asynchronous to the client's close() call).
template <typename Pred>
bool eventually(Pred pred, Duration limit = seconds(10)) {
  Deadline d = Deadline::after(limit);
  while (!d.expired()) {
    if (pred()) return true;
    sleep_for(ms(2));
  }
  return pred();
}

// 10k churned connections through one listener: the server connection
// table must stay bounded by the live set while churning and drain to
// zero afterwards. Before the wheel-folded sweep + take()-on-close
// hygiene, dead entries accumulated until the map was the history of
// every connection ever made.
TEST(ConnScaleTest, ChurnLeavesNoTableResidue) {
#ifdef BERTHA_TSAN
  constexpr int kTotal = 1500;
#else
  constexpr int kTotal = 10000;
#endif
  constexpr int kBatch = 64;
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h-srv");
  auto cli_rt = world.runtime("h-cli");

  auto listener = srv_rt->endpoint("srv", ChunnelDag::empty())
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto cli_ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();

  // Server side: accept and immediately drop (dropping the last ref
  // closes the stack; the close frame races the next batch — exactly
  // the churn the table has to absorb).
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    while (!stop.load()) {
      auto c = listener->accept(Deadline::after(ms(50)));
      if (c.ok()) c.value()->close();
    }
  });

  for (int done = 0; done < kTotal; done += kBatch) {
    std::vector<ConnPtr> batch;
    for (int i = 0; i < kBatch && done + i < kTotal; i++) {
      auto c = cli_ep.connect(listener->addr(), Deadline::after(seconds(5)));
      ASSERT_TRUE(c.ok()) << "conn " << done + i << ": "
                          << c.error().to_string();
      batch.push_back(std::move(c).value());
    }
    for (auto& c : batch) c->close();
    // Bounded while churning: live entries can lag by the in-flight
    // close frames, never by the total history.
    EXPECT_LE(listener->connections_live(),
              static_cast<uint64_t>(4 * kBatch))
        << "server table grew with history after " << done << " conns";
  }

  EXPECT_TRUE(eventually(
      [&] { return listener->connections_live() == 0; }))
      << "table residue after churn: " << listener->connections_live()
      << " entries for 0 live connections";
  EXPECT_EQ(listener->connections_accepted(),
            static_cast<uint64_t>(kTotal));
  stop.store(true);
  acceptor.join();
}

// An idle fleet is free: opening the second half of the fleet adds zero
// threads (keepalives ride the shared wheel), and once parked the whole
// fleet allocates nothing. Keepalive interval/sweep periods exceed the
// measurement window, so any allocation here is a real per-connection
// background cost.
TEST(ConnScaleTest, IdleConnectionsAddNoThreadsOrAllocs) {
#ifdef BERTHA_TSAN
  constexpr int kConns = 1000;
#else
  constexpr int kConns = 50000;
#endif
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h-srv");
  // Several client hosts: one mem host has ~25k ephemeral ports, and a
  // 50k fleet from one host would exhaust them (a realistic listener
  // serves many remote hosts anyway — only the server side must scale
  // in one process).
  constexpr int kCliHosts = 4;
  std::vector<std::shared_ptr<Runtime>> cli_rts;
  std::vector<Endpoint> cli_eps;
  for (int h = 0; h < kCliHosts; h++) {
    cli_rts.push_back(world.runtime("h-cli-" + std::to_string(h)));
    cli_eps.push_back(
        cli_rts.back()->endpoint("cli", ChunnelDag::empty()).value());
  }

  ChunnelArgs args;
  args.set("interval_us", "30000000");     // 30s: armed, never fires here
  args.set("dead_after_us", "120000000");  // 2min
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("keepalive", args)))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();

  std::vector<ConnPtr> client, server;
  client.reserve(kConns);
  server.reserve(kConns);
  int opened = 0;
  auto open_n = [&](int n) {
    for (int i = 0; i < n; i++, opened++) {
      auto& ep = cli_eps[opened % kCliHosts];
      auto c = ep.connect(listener->addr(), Deadline::after(seconds(5)));
      ASSERT_TRUE(c.ok()) << c.error().to_string();
      client.push_back(std::move(c).value());
      auto s = listener->accept(Deadline::after(seconds(5)));
      ASSERT_TRUE(s.ok()) << s.error().to_string();
      server.push_back(std::move(s).value());
    }
  };

  // Warmup: first connections create the shared machinery (wheel tick
  // thread, demux/reactor threads, pool growth).
  open_n(kConns / 2);
  sleep_for(ms(100));
  int threads_at_warmup = process_threads();
  ASSERT_GT(threads_at_warmup, 0);

  open_n(kConns - kConns / 2);
  EXPECT_EQ(listener->connections_live(), static_cast<uint64_t>(kConns));

  int threads_full = process_threads();
  EXPECT_EQ(threads_full, threads_at_warmup)
      << (threads_full - threads_at_warmup) << " new threads for "
      << kConns - kConns / 2 << " additional idle connections";

  // Parked fleet: nothing in the process should allocate. The wheel
  // holds one armed (not re-arming) entry per connection; demux is
  // event-driven with nothing arriving.
  sleep_for(ms(50));  // let in-flight establishment work settle
  uint64_t before = g_allocs.load();
  sleep_for(ms(200));
  uint64_t delta = g_allocs.load() - before;
  EXPECT_LE(delta, 64u) << "idle fleet of " << kConns << " connections "
                        << "allocated " << delta << " times while parked";

  for (auto& c : client) c->close();
  for (auto& s : server) s->close();
  client.clear();
  server.clear();
  EXPECT_TRUE(eventually(
      [&] { return listener->connections_live() == 0; }))
      << listener->connections_live() << " entries leaked";
}

// One keepalive storm. Connections whose client vanished must be
// pronounced dead (unavailable via heartbeat silence, or cancelled if the
// close frame got through); connections that kept beating through 5%
// seeded loss must stay alive.
struct StormVerdicts {
  int dead_terminal = 0;  // vanished clients seen as unavailable/cancelled
  int live_alive = 0;     // surviving clients still alive (recv timed out)
};

StormVerdicts run_keepalive_storm(uint64_t seed) {
  constexpr int kConns = 12;
  MemNetwork::Config mcfg;
  mcfg.seed = seed;
  mcfg.drop_rate = 0.05;
  auto mem = MemNetwork::create(mcfg);
  auto discovery = std::make_shared<DiscoveryState>();

  auto make_rt = [&](const std::string& host) {
    RuntimeConfig cfg;
    cfg.host_id = host;
    cfg.transports = std::make_shared<DefaultTransportFactory>(mem, nullptr,
                                                               host);
    cfg.discovery = discovery;
    cfg.io.wheel_tick = ms(5);
    // Short retry gap: a server conn is born when the FIRST hello lands,
    // but the client only starts beating once connect() returns. Every
    // lost accept-reply widens that silent window by one retry gap, so
    // the gap must stay well below dead_after or an establishment retry
    // alone can condemn a live connection.
    cfg.handshake_timeout = ms(100);
    cfg.handshake_retries = 10;
    auto rt = Runtime::create(std::move(cfg)).value();
    EXPECT_TRUE(register_builtin_chunnels(*rt).ok());
    return rt;
  };
  auto srv_rt = make_rt("h-srv");
  auto cli_rt = make_rt("h-cli");

  ChunnelArgs args;
  args.set("interval_us", "20000");
  args.set("dead_after_us", "600000");
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("keepalive", args)))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto cli_ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();

  std::vector<ConnPtr> client, server;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kConns; i++) {
    client.push_back(
        cli_ep.connect(listener->addr(), Deadline::after(seconds(5))).value());
    server.push_back(listener->accept(Deadline::after(seconds(5))).value());
    if (std::getenv("BERTHA_STORM_DEBUG"))
      fprintf(stderr, "conn[%d] cli=%p srv=%p t=%ldms\n", i,
              (void*)client.back().get(), (void*)server.back().get(),
              (long)std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
  }
  // Even connections: client vanishes. Odd: client stays, heartbeating.
  for (int i = 0; i < kConns; i += 2) client[i]->close();

  StormVerdicts v;
  std::vector<std::thread> judges;
  std::mutex vm;
  for (int i = 0; i < kConns; i++) {
    judges.emplace_back([&, i] {
      // Dead peers trip dead_after=600ms well inside this window; live
      // peers just time out.
      auto r = server[i]->recv(Deadline::after(ms(1500)));
      if (std::getenv("BERTHA_STORM_DEBUG"))
        fprintf(stderr, "judge[%d] %s -> %s\n", i, i % 2 ? "live" : "dead",
                r.ok() ? "msg" : r.error().to_string().c_str());
      std::lock_guard<std::mutex> lk(vm);
      if (i % 2 == 0) {
        if (!r.ok() && (r.error().code == Errc::unavailable ||
                        r.error().code == Errc::cancelled))
          v.dead_terminal++;
      } else {
        if (!r.ok() && r.error().code == Errc::timed_out) v.live_alive++;
      }
    });
  }
  for (auto& j : judges) j.join();
  if (std::getenv("BERTHA_STORM_DEBUG")) {
    for (auto* rt : {cli_rt.get(), srv_rt.get()}) {
      auto w = rt->timer_wheel();
      if (!w) continue;
      auto s = w->stats();
      fprintf(stderr,
              "wheel[%s] sched=%llu fired=%llu cancelled=%llu armed=%llu\n",
              rt == cli_rt.get() ? "cli" : "srv",
              (unsigned long long)s.scheduled, (unsigned long long)s.fired,
              (unsigned long long)s.cancelled, (unsigned long long)s.armed);
    }
    fprintf(stderr, "mem delivered=%llu dropped=%llu\n",
            (unsigned long long)mem->delivered(),
            (unsigned long long)mem->dropped());
  }
  for (auto& c : client)
    if (c) c->close();
  for (auto& s : server) s->close();
  return v;
}

// reliable/arq runs on its callers' threads and the runtime's timer
// wheel, so opening and using reliable connections adds no threads.
TEST(ConnScaleTest, ReliableConnectionsAddNoThreads) {
  constexpr int kConns = 32;
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h-srv");
  auto cli_rt = world.runtime("h-cli");
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h-srv", 100))
                      .value();
  auto ep = cli_rt->endpoint("cli", ChunnelDag::empty()).value();
  std::vector<ConnPtr> conns;
  auto open_one = [&] {
    auto c = ep.connect(listener->addr(), Deadline::after(seconds(5)));
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    auto s = listener->accept(Deadline::after(seconds(5)));
    ASSERT_TRUE(s.ok()) << s.error().to_string();
    ASSERT_TRUE(c.value()->send(Msg::of("ping")).ok());
    auto req = s.value()->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(req.ok()) << req.error().to_string();
    ASSERT_TRUE(s.value()->send(Msg::of("pong")).ok());
    auto rsp = c.value()->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(rsp.ok()) << rsp.error().to_string();
    conns.push_back(std::move(c).value());
    conns.push_back(std::move(s).value());
  };

  // Warmup: the first connection creates the shared machinery (wheel
  // tick thread, reactor).
  open_one();
  sleep_for(ms(100));
  int threads_at_warmup = process_threads();
  ASSERT_GT(threads_at_warmup, 0);
  for (int i = 0; i < kConns; i++) open_one();
  int threads_full = process_threads();
  EXPECT_EQ(threads_full, threads_at_warmup)
      << (threads_full - threads_at_warmup) << " new threads for " << kConns
      << " reliable connections";
  for (auto& c : conns) c->close();
}

// Keepalive stacks built without a runtime (a bare WrapContext, no
// wheel) beat on the process wheel, so wrapping them adds no threads.
TEST(ConnScaleTest, BareKeepaliveStacksAddNoThreads) {
  constexpr int kPairs = 32;
  KeepaliveOptions opts;
  opts.interval = ms(20);
  opts.dead_after = seconds(5);
  KeepaliveChunnel impl(opts);
  auto net = MemNetwork::create();
  std::vector<ConnPtr> conns;
  auto wrap_pair = [&](int i) {
    auto ta = net->bind(Addr::mem("a", 0)).value();
    auto tb = net->bind(Addr::mem("b", 0)).value();
    Addr addr_a = ta->local_addr(), addr_b = tb->local_addr();
    ConnPtr base_a =
        std::make_shared<FixedPeerConnection>(std::move(ta), addr_b);
    ConnPtr base_b =
        std::make_shared<FixedPeerConnection>(std::move(tb), addr_a);
    WrapContext ctx_a;
    ctx_a.role = Role::client;
    WrapContext ctx_b = ctx_a;
    ctx_b.role = Role::server;
    conns.push_back(impl.wrap(base_a, ctx_a).value());
    conns.push_back(impl.wrap(base_b, ctx_b).value());
    std::string msg = "ping" + std::to_string(i);
    ASSERT_TRUE(conns[conns.size() - 2]->send(Msg::of(msg)).ok());
    auto got = conns.back()->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_EQ(got.value().payload_str(), msg);
  };

  // Warmup: the first pair starts the process wheel's tick thread.
  wrap_pair(0);
  sleep_for(ms(100));
  int threads_at_warmup = process_threads();
  ASSERT_GT(threads_at_warmup, 0);
  for (int i = 1; i <= kPairs; i++) wrap_pair(i);
  int threads_full = process_threads();
  EXPECT_EQ(threads_full, threads_at_warmup)
      << (threads_full - threads_at_warmup) << " new threads for " << kPairs
      << " bare keepalive pairs";
  for (auto& c : conns) c->close();
}

TEST(ConnScaleTest, KeepaliveStormMatchesGoldenVerdicts) {
  for (uint64_t seed : {7u, 21u}) {
    auto v = run_keepalive_storm(seed);
    EXPECT_EQ(v.dead_terminal, 6) << "missed dead peers (seed " << seed << ")";
    EXPECT_EQ(v.live_alive, 6)
        << "false-killed live peers (seed " << seed << ")";
  }
}

// Lease heartbeats: a leased registration must survive many TTLs under
// 5% loss with zero heartbeat threads, on a supplied wheel and on the
// process wheel (no wheel_source) — and the lease must die once the
// client does.
TEST(ConnScaleTest, WheelHeartbeatKeepsLeaseAlive) {
  for (bool own_wheel : {true, false}) {
    MemNetwork::Config mcfg;
    mcfg.seed = 11;
    mcfg.drop_rate = 0.05;
    auto mem = MemNetwork::create(mcfg);
    auto state = std::make_shared<DiscoveryState>();
    DiscoveryServer server(mem->bind(Addr::mem("disc", 1)).value(), state);

    auto wheel = TimerWheel::create(
        {.tick = ms(5), .slots = 64, .manual = false, .metrics = nullptr});
    auto stats = std::make_shared<FaultStats>();
    {
      RemoteDiscovery::Options ro;
      ro.rpc_timeout = ms(100);
      ro.retries = 3;
      ro.lease_ttl = ms(200);
      ro.stats = stats;
      if (own_wheel) ro.wheel_source = [wheel] { return wheel; };
      RemoteDiscovery client(mem->bind(Addr::mem("h-c", 0)).value(),
                             server.addr(), ro);
      ImplInfo info;
      info.type = "scale";
      info.name = own_wheel ? "scale/wheel" : "scale/process-wheel";
      ASSERT_TRUE(client.register_impl(info).ok());
      EXPECT_EQ(state->lease_count(), 1u);

      // Four TTLs of idle time: only heartbeats keep the lease alive.
      sleep_for(ms(800));
      (void)state->expire_leases();
      EXPECT_EQ(state->lease_count(), 1u)
          << (own_wheel ? "wheel" : "process-wheel") << " heartbeats failed to "
          << "renew the lease";
      EXPECT_GE(stats->heartbeats_sent.load(), 2u);
      auto found = state->query("scale");
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(found.value().size(), 1u);
    }
    // Client gone: heartbeats stop, the lease must expire.
    EXPECT_TRUE(eventually([&] {
      (void)state->expire_leases();
      return state->lease_count() == 0;
    }))
        << "lease stuck after client teardown";
    wheel->stop();
  }
}

}  // namespace
}  // namespace bertha
