// Unit tests for src/util: Result, bytes, rng, hash, stats, queues,
// rate limiter.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/hash.hpp"
#include "util/queue.hpp"
#include "util/rand.hpp"
#include "util/rate_limiter.hpp"
#include "util/result.hpp"
#include "util/stats.hpp"

namespace bertha {
namespace {

// --- Result ---

Result<int> parse_positive(int v) {
  if (v <= 0) return err(Errc::invalid_argument, "not positive");
  return v;
}

Result<int> doubled(int v) {
  BERTHA_TRY_ASSIGN(x, parse_positive(v));
  return x * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = err(Errc::not_found, "nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
  EXPECT_EQ(r.error().message, "nope");
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_EQ(r.error().to_string(), "not_found: nope");
}

TEST(ResultTest, VoidSpecialization) {
  Result<void> good = ok();
  EXPECT_TRUE(good.ok());
  Result<void> bad = err(Errc::io_error, "disk");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::io_error);
}

TEST(ResultTest, TryMacroPropagates) {
  auto good = doubled(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  auto bad = doubled(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::invalid_argument);
}

TEST(ResultTest, MapTransformsValueOnly) {
  auto r = Result<int>(10).map([](int v) { return v + 1; });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 11);
  auto e = Result<int>(err(Errc::cancelled, "x")).map([](int v) { return v; });
  EXPECT_FALSE(e.ok());
}

TEST(ResultTest, EveryErrcHasName) {
  for (int c = 0; c <= static_cast<int>(Errc::internal); c++)
    EXPECT_NE(errc_name(static_cast<Errc>(c)), "unknown");
}

// --- bytes ---

TEST(BytesTest, StringRoundTrip) {
  Bytes b = to_bytes("hello");
  EXPECT_EQ(to_string(b), "hello");
}

TEST(BytesTest, FixedWidthLittleEndian) {
  Bytes b;
  put_u16_le(b, 0x1234);
  put_u32_le(b, 0xdeadbeef);
  put_u64_le(b, 0x0123456789abcdefULL);
  ASSERT_EQ(b.size(), 14u);
  EXPECT_EQ(get_u16_le(b, 0), 0x1234);
  EXPECT_EQ(get_u32_le(b, 2), 0xdeadbeefu);
  EXPECT_EQ(get_u64_le(b, 6), 0x0123456789abcdefULL);
}

TEST(BytesTest, HexDumpTruncates) {
  Bytes b(100, 0xff);
  std::string dump = hex_dump(b, 4);
  EXPECT_EQ(dump, "ff ff ff ff ...");
}

// --- rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; i++)
    if (a.next_u64() == b.next_u64()) same++;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; i++) EXPECT_LT(r.next_below(17), 17u);
}

TEST(RngTest, NextInInclusive) {
  Rng r(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; i++) {
    int64_t v = r.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; i++) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng r(11);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng r(13);
  int hits = 0;
  for (int i = 0; i < 10000; i++)
    if (r.chance(0.3)) hits++;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// --- hash ---

TEST(HashTest, Fnv1aKnownVector) {
  // FNV-1a("") is the offset basis.
  EXPECT_EQ(fnv1a64(std::string_view("")), 0xcbf29ce484222325ULL);
  // Bytes overload agrees with the string overload.
  EXPECT_EQ(fnv1a64(std::string_view("bertha")), fnv1a64(to_bytes("bertha")));
}

TEST(HashTest, Mix64ChangesValue) {
  EXPECT_NE(mix64(0), 0u);
  EXPECT_NE(mix64(1), mix64(2));
}

// --- stats ---

TEST(StatsTest, PercentilesOfKnownSet) {
  SampleSet s;
  for (int i = 1; i <= 100; i++) s.add(i);
  EXPECT_NEAR(s.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1, 0.01);
  EXPECT_NEAR(s.percentile(100), 100, 0.01);
  Summary sum = s.summarize();
  EXPECT_EQ(sum.count, 100u);
  EXPECT_NEAR(sum.mean, 50.5, 0.01);
  EXPECT_NEAR(sum.p95, 95.05, 0.1);
  EXPECT_EQ(sum.min, 1);
  EXPECT_EQ(sum.max, 100);
}

TEST(StatsTest, EmptySummaryIsZero) {
  SampleSet s;
  Summary sum = s.summarize();
  EXPECT_EQ(sum.count, 0u);
  EXPECT_EQ(sum.p95, 0);
}

TEST(StatsTest, MergeCombinesSamples) {
  SampleSet a, b;
  a.add(1);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_NEAR(a.summarize().mean, 2.0, 1e-9);
}

TEST(StatsTest, LogHistogramPercentileAccuracy) {
  LogHistogram h;
  SampleSet exact;
  Rng r(17);
  for (int i = 0; i < 20000; i++) {
    double v = 1.0 + static_cast<double>(r.next_below(100000));
    h.add(v);
    exact.add(v);
  }
  for (double q : {50.0, 90.0, 99.0, 99.9}) {
    double approx = h.percentile(q);
    double truth = exact.percentile(q);
    EXPECT_NEAR(approx / truth, 1.0, 0.05) << "q=" << q;
  }
  EXPECT_NEAR(h.mean(), exact.summarize().mean, exact.summarize().mean * 0.01);
}

TEST(StatsTest, LogHistogramMerge) {
  LogHistogram a, b;
  a.add(10);
  b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GE(a.percentile(99), 10.0);
}

// --- queue ---

TEST(QueueTest, FifoOrder) {
  BlockingQueue<int> q;
  ASSERT_TRUE(q.push(1).ok());
  ASSERT_TRUE(q.push(2).ok());
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(QueueTest, PopTimesOut) {
  BlockingQueue<int> q;
  auto r = q.pop(Deadline::after(ms(10)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timed_out);
}

TEST(QueueTest, BoundedQueueDropsWhenFull) {
  BlockingQueue<int> q(2);
  ASSERT_TRUE(q.push(1).ok());
  ASSERT_TRUE(q.push(2).ok());
  auto r = q.push(3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::resource_exhausted);
}

TEST(QueueTest, CloseWakesBlockedPopper) {
  BlockingQueue<int> q;
  std::thread t([&] {
    sleep_for(ms(20));
    q.close();
  });
  auto r = q.pop();
  t.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::cancelled);
}

TEST(QueueTest, CloseStillDrainsQueued) {
  BlockingQueue<int> q;
  ASSERT_TRUE(q.push(5).ok());
  q.close();
  EXPECT_FALSE(q.push(6).ok());
  EXPECT_EQ(q.pop().value(), 5);
  EXPECT_FALSE(q.pop().ok());
}

TEST(QueueTest, CrossThreadHandoff) {
  BlockingQueue<int> q;
  constexpr int kN = 1000;
  std::thread producer([&] {
    for (int i = 0; i < kN; i++) ASSERT_TRUE(q.push(i).ok());
  });
  for (int i = 0; i < kN; i++) {
    auto r = q.pop(Deadline::after(seconds(5)));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), i);
  }
  producer.join();
}

// --- deadline ---

TEST(DeadlineTest, NeverNeverExpires) {
  Deadline d = Deadline::never();
  EXPECT_TRUE(d.is_never());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), Duration::max());
}

TEST(DeadlineTest, AfterExpires) {
  Deadline d = Deadline::after(ms(5));
  EXPECT_FALSE(d.is_never());
  sleep_for(ms(10));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), Duration::zero());
}

// --- rate limiter ---

TEST(RateLimiterTest, BurstIsImmediate) {
  TokenBucket tb(100.0, 10.0);
  Stopwatch sw;
  for (int i = 0; i < 10; i++) tb.acquire();
  EXPECT_LT(sw.elapsed_us(), 20000.0);
}

TEST(RateLimiterTest, SustainedRateIsEnforced) {
  TokenBucket tb(1000.0, 1.0);  // 1k/s, no burst
  Stopwatch sw;
  for (int i = 0; i < 50; i++) tb.acquire();
  // 49 waits at ~1ms each.
  EXPECT_GT(sw.elapsed_us(), 30000.0);
}

TEST(RateLimiterTest, TryAcquireFailsWhenEmpty) {
  TokenBucket tb(0.001, 1.0);
  EXPECT_TRUE(tb.try_acquire());
  EXPECT_FALSE(tb.try_acquire());
}

}  // namespace
}  // namespace bertha
