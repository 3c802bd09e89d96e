// MetricsRegistry: one snapshot call for every counter in the runtime.
//
// Two ways in:
//  - Owned instruments: counter()/gauge() hand out shared atomics the
//    caller bumps directly; observe() feeds a named log-bucketed
//    histogram. All show up in snapshot() under their name.
//  - Providers: attach_provider() registers a closure that folds an
//    existing stats structure (FaultStats, TransitionStats, telemetry
//    cells) into the snapshot at snapshot() time. This is how legacy
//    ad-hoc counters migrate without churning their call sites — the
//    original accessors remain the source of truth and the registry is
//    a thin aggregation view over them.
//
// Thread-safety: instruments are atomics; registration and snapshotting
// take the registry mutex. Providers must be safe to call from any
// thread (they read atomics / take their own locks).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace bertha {

class MetricsRegistry {
 public:
  struct HistogramSummary {
    uint64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double p999 = 0;
  };

  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSummary> histograms;
  };

  // A provider folds externally-owned stats into the snapshot. It must
  // capture shared ownership of whatever it reads.
  using Provider = std::function<void(Snapshot&)>;

  using CounterPtr = std::shared_ptr<std::atomic<uint64_t>>;
  using GaugePtr = std::shared_ptr<std::atomic<int64_t>>;

  // Returns the named counter, creating it on first use. Stable for the
  // registry's lifetime; bump with fetch_add.
  CounterPtr counter(const std::string& name);
  GaugePtr gauge(const std::string& name);

  // Adds one sample to the named histogram (log-bucketed; summarized as
  // count/mean/p50/p95/p99/p999 in the snapshot).
  void observe(const std::string& name, double value);

  // `name` is only for diagnostics/replacement: re-attaching under the
  // same name replaces the previous provider.
  void attach_provider(const std::string& name, Provider p);

  Snapshot snapshot() const;

  // "name value" lines, sorted; histograms as
  // name{count,mean,p50,p95,p99,p999}.
  std::string to_string() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, CounterPtr> counters_;
  std::map<std::string, GaugePtr> gauges_;
  std::map<std::string, LogHistogram> histograms_;
  std::map<std::string, Provider> providers_;
};

using MetricsPtr = std::shared_ptr<MetricsRegistry>;

class Tracer;

// Standard providers for the runtime's pre-existing counter structures.
// Each captures shared ownership; the original accessors remain the
// source of truth. (The transition-stats provider lives in
// core/renegotiation.{hpp,cpp} next to its types.)
void attach_fault_stats_provider(MetricsRegistry& m, FaultStatsPtr stats);
void attach_tracer_provider(MetricsRegistry& m, std::shared_ptr<Tracer> tracer);

// Null-safe counter bump for optional registries.
inline void metrics_add(const MetricsPtr& m, const std::string& name,
                        uint64_t delta = 1) {
  if (m) m->counter(name)->fetch_add(delta, std::memory_order_relaxed);
}

}  // namespace bertha
