// Latency statistics: sample sets with percentile summaries, and a
// log-bucketed histogram for long-running measurement with bounded memory.
//
// The benchmark harnesses report the same statistics as the paper's
// figures: Fig 3 uses p5/p25/p50/p75/p95 box stats, Fig 5 uses p95.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace bertha {

// Fault-tolerance counters shared across the discovery/negotiation fault
// path: RemoteDiscovery (retries, heartbeats), DiscoveryState/Server
// (leases, dedup) and CachingDiscovery (degraded mode). One instance per
// runtime, exposed via Runtime::fault_stats(); all fields are atomics so
// any thread may bump them.
struct FaultStats {
  std::atomic<uint64_t> rpc_retries{0};     // resends after an RPC timeout
  std::atomic<uint64_t> rpc_failures{0};    // RPCs that exhausted retries
  std::atomic<uint64_t> dedup_hits{0};      // replays served from the cache
  std::atomic<uint64_t> lease_grants{0};
  std::atomic<uint64_t> lease_renewals{0};
  std::atomic<uint64_t> lease_expiries{0};  // owners reaped by the sweep
  std::atomic<uint64_t> heartbeats_sent{0};
  std::atomic<uint64_t> lease_recoveries{0};  // re-registers after lost lease
  std::atomic<uint64_t> degraded_entries{0};
  std::atomic<uint64_t> degraded_exits{0};
  std::atomic<uint64_t> catalogue_hits{0};  // degraded queries from cache
  // Server-push watch streams (RemoteDiscovery subscriptions).
  std::atomic<uint64_t> watch_batches{0};       // pushed batches applied
  std::atomic<uint64_t> watch_resubscribes{0};  // seq gaps -> resume sent
  std::atomic<uint64_t> watch_snapshots{0};     // snapshot batches applied
  // Multi-server failover (replicated discovery control plane).
  std::atomic<uint64_t> server_failovers{0};  // rotations to the next replica
  // Control-plane self-healing (src/control/replica).
  std::atomic<uint64_t> view_changes{0};  // sequencer views adopted
  std::atomic<uint64_t> catchups{0};      // peer snapshots installed
  std::atomic<uint64_t> gap_misses{0};    // fetches past the resend log
  // Online repartitioning (src/control/reshard).
  std::atomic<uint64_t> reshard_fences{0};    // ranges frozen at a source
  std::atomic<uint64_t> reshard_installs{0};  // payloads ingested at a dest
  std::atomic<uint64_t> reshard_cutovers{0};  // ranges flipped to forwarding
  std::atomic<uint64_t> reshard_forwards{0};  // stale requests forwarded

  std::string to_string() const;
};

using FaultStatsPtr = std::shared_ptr<FaultStats>;

// Box-plot style summary of a sample set.
struct Summary {
  size_t count = 0;
  double mean = 0;
  double min = 0;
  double p5 = 0;
  double p25 = 0;
  double p50 = 0;
  double p75 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;

  // One line: "n=100 mean=1.2 p50=1.1 p95=2.0 ..." (values in the sample's
  // own unit; callers record microseconds by convention).
  std::string to_string() const;
};

// Collects raw samples; exact percentiles on demand. Not thread-safe —
// each measuring thread owns one and merges at the end.
class SampleSet {
 public:
  void reserve(size_t n) { samples_.reserve(n); }
  void add(double v) { samples_.push_back(v); }
  void add_duration_us(Duration d) {
    samples_.push_back(std::chrono::duration<double, std::micro>(d).count());
  }
  void merge(const SampleSet& other);
  void clear() { samples_.clear(); }

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const std::vector<double>& samples() const { return samples_; }

  // Exact percentile by nearest-rank on a sorted copy. q in [0,100].
  double percentile(double q) const;
  Summary summarize() const;

 private:
  std::vector<double> samples_;
};

// Log-bucketed histogram: ~2% relative error, constant memory, suitable
// for values spanning nanoseconds to seconds. Thread-compatible (not
// thread-safe); merge per-thread instances.
class LogHistogram {
 public:
  LogHistogram();

  void add(double v);
  void merge(const LogHistogram& other);

  size_t count() const { return count_; }
  double percentile(double q) const;  // q in [0,100]
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0; }

 private:
  static constexpr int kBucketsPerOctave = 32;
  static constexpr int kOctaves = 48;  // covers [1, 2^48)
  int bucket_for(double v) const;
  double bucket_value(int i) const;

  std::vector<uint64_t> buckets_;
  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace bertha
