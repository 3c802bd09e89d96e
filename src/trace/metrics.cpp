#include "trace/metrics.hpp"

#include <sstream>

#include "trace/trace.hpp"

namespace bertha {

MetricsRegistry::CounterPtr MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_shared<std::atomic<uint64_t>>(0);
  return slot;
}

MetricsRegistry::GaugePtr MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_shared<std::atomic<int64_t>>(0);
  return slot;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  histograms_[name].add(value);
}

void MetricsRegistry::attach_provider(const std::string& name, Provider p) {
  std::lock_guard<std::mutex> lk(mu_);
  providers_[name] = std::move(p);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::vector<Provider> providers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [name, c] : counters_)
      snap.counters[name] = c->load(std::memory_order_relaxed);
    for (const auto& [name, g] : gauges_)
      snap.gauges[name] = static_cast<double>(g->load(std::memory_order_relaxed));
    for (const auto& [name, h] : histograms_) {
      HistogramSummary s;
      s.count = h.count();
      s.mean = h.mean();
      s.p50 = h.percentile(50);
      s.p95 = h.percentile(95);
      s.p99 = h.percentile(99);
      s.p999 = h.percentile(99.9);
      snap.histograms[name] = s;
    }
    providers.reserve(providers_.size());
    for (const auto& [name, p] : providers_) providers.push_back(p);
  }
  // Providers run outside the registry lock: they may take their own
  // locks (e.g. TransitionStatsSink::snapshot) and must not deadlock
  // against a concurrent counter() registration.
  for (const auto& p : providers) p(snap);
  return snap;
}

void attach_fault_stats_provider(MetricsRegistry& m, FaultStatsPtr stats) {
  if (!stats) return;
  m.attach_provider("fault_stats", [stats](MetricsRegistry::Snapshot& snap) {
    auto& c = snap.counters;
    c["fault.rpc_retries"] = stats->rpc_retries.load();
    c["fault.rpc_failures"] = stats->rpc_failures.load();
    c["fault.dedup_hits"] = stats->dedup_hits.load();
    c["fault.lease_grants"] = stats->lease_grants.load();
    c["fault.lease_renewals"] = stats->lease_renewals.load();
    c["fault.lease_expiries"] = stats->lease_expiries.load();
    c["fault.heartbeats_sent"] = stats->heartbeats_sent.load();
    c["fault.lease_recoveries"] = stats->lease_recoveries.load();
    c["fault.degraded_entries"] = stats->degraded_entries.load();
    c["fault.degraded_exits"] = stats->degraded_exits.load();
    c["fault.catalogue_hits"] = stats->catalogue_hits.load();
    c["fault.watch_batches"] = stats->watch_batches.load();
    c["fault.watch_resubscribes"] = stats->watch_resubscribes.load();
    c["fault.watch_snapshots"] = stats->watch_snapshots.load();
    c["fault.server_failovers"] = stats->server_failovers.load();
    c["ctrl.view_change"] = stats->view_changes.load();
    c["ctrl.catchup"] = stats->catchups.load();
    c["ctrl.gap_miss"] = stats->gap_misses.load();
    c["ctrl.reshard.fences"] = stats->reshard_fences.load();
    c["ctrl.reshard.installs"] = stats->reshard_installs.load();
    c["ctrl.reshard.cutovers"] = stats->reshard_cutovers.load();
    c["ctrl.reshard.forwards"] = stats->reshard_forwards.load();
  });
}

void attach_tracer_provider(MetricsRegistry& m,
                            std::shared_ptr<Tracer> tracer) {
  if (!tracer) return;
  m.attach_provider("tracer", [tracer](MetricsRegistry::Snapshot& snap) {
    snap.counters["trace.spans_recorded"] = tracer->span_count();
    snap.counters["trace.spans_dropped"] = tracer->dropped();
  });
}

std::string MetricsRegistry::to_string() const {
  Snapshot snap = snapshot();
  std::ostringstream os;
  for (const auto& [name, v] : snap.counters) os << name << " " << v << "\n";
  for (const auto& [name, v] : snap.gauges) os << name << " " << v << "\n";
  for (const auto& [name, h] : snap.histograms)
    os << name << "{count=" << h.count << " mean=" << h.mean
       << " p50=" << h.p50 << " p95=" << h.p95 << " p99=" << h.p99
       << " p999=" << h.p999 << "}\n";
  return os.str();
}

}  // namespace bertha
