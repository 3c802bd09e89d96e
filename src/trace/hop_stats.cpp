#include "trace/hop_stats.hpp"

#include <bit>
#include <cmath>

namespace bertha {

namespace {

int bucket_for(uint64_t v) {
  if (v == 0) return 0;
  int oct = 63 - std::countl_zero(v);
  if (oct >= AtomicHistogram::kOctaves) oct = AtomicHistogram::kOctaves - 1;
  // Next kSubBits bits below the leading one select the sub-bucket.
  int sub = oct >= AtomicHistogram::kSubBits
                ? static_cast<int>((v >> (oct - AtomicHistogram::kSubBits)) &
                                   ((1u << AtomicHistogram::kSubBits) - 1))
                : 0;
  return (oct << AtomicHistogram::kSubBits) | sub;
}

// Representative value: the middle of the bucket's range.
double bucket_value(int idx) {
  int oct = idx >> AtomicHistogram::kSubBits;
  int sub = idx & ((1 << AtomicHistogram::kSubBits) - 1);
  double base = std::ldexp(1.0, oct);
  double step = base / (1 << AtomicHistogram::kSubBits);
  return base + step * (sub + 0.5);
}

}  // namespace

void AtomicHistogram::record(uint64_t v) {
  buckets_[static_cast<size_t>(bucket_for(v))].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

uint64_t AtomicHistogram::count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double AtomicHistogram::mean() const {
  uint64_t n = count();
  if (n == 0) return 0;
  return static_cast<double>(sum_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

double AtomicHistogram::percentile(double q) const {
  uint64_t n = count();
  if (n == 0) return 0;
  double rank = q / 100.0 * static_cast<double>(n);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; i++) {
    seen += buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    if (static_cast<double>(seen) >= rank) return bucket_value(i);
  }
  return bucket_value(kBuckets - 1);
}

MetricsRegistry::HistogramSummary AtomicHistogram::summarize() const {
  MetricsRegistry::HistogramSummary s;
  s.count = count();
  s.mean = mean();
  s.p50 = percentile(50);
  s.p95 = percentile(95);
  s.p99 = percentile(99);
  s.p999 = percentile(99.9);
  return s;
}

HopLatencyStats::CellPtr HopLatencyStats::cell(const std::string& hop) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& c = cells_[hop];
  if (!c) c = std::make_shared<Cell>();
  return c;
}

void HopLatencyStats::fold_into(MetricsRegistry::Snapshot& snap) const {
  std::map<std::string, CellPtr> cells;
  {
    std::lock_guard<std::mutex> lk(mu_);
    cells = cells_;
  }
  for (const auto& [name, c] : cells) {
    auto send = c->send_ns.summarize();
    if (send.count) snap.histograms["hop.send." + name] = send;
    auto recv = c->recv_ns.summarize();
    if (recv.count) snap.histograms["hop.recv." + name] = recv;
  }
}

void attach_hop_stats_provider(MetricsRegistry& m, HopStatsPtr stats) {
  m.attach_provider("hop_stats", [stats](MetricsRegistry::Snapshot& snap) {
    stats->fold_into(snap);
  });
}

}  // namespace bertha
