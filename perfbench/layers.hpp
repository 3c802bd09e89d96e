// Benchmark-owned decorators that measure bertha's layers from outside,
// through their public interfaces only.
//
//  * TimedImpl wraps a stock ChunnelImpl. Its wrap() times the real
//    wrap() and returns a TimedConnection around the real layer's
//    connection; the innermost decorated layer also puts a
//    TimedConnection (layer "net.base") around the base connection it
//    is handed, so the transport plus endpoint demux is measured too.
//  * TimedConnection records self time per layer with a thread-local
//    nesting stack: each call's wall and thread-CPU time minus what the
//    calls it made into the layer below took on the same thread.
//  * A counting operator new (layers.cpp) attributes every allocation
//    to the layer on top of the calling thread's stack.
//  * TimedDiscovery wraps a DiscoveryClient and times query, acquire
//    and release.
//
// All counters are process-wide, so one snapshot covers the client and
// server halves of every connection in the process.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/discovery.hpp"
#include "core/runtime.hpp"

namespace perfbench {

// The six chunnel types of the measured stack, outermost first, plus
// the base connection below them.
inline constexpr std::array<const char*, 6> kChunnelTypes = {
    "serialize", "compress", "encrypt", "frame", "ordering", "reliable"};
inline constexpr size_t kBaseLayer = 6;
inline constexpr size_t kLayers = 7;

// Plain copy of one layer's counters. Times are nanoseconds.
struct LayerTotals {
  uint64_t send_ns = 0;  // self wall time in completed send calls
  uint64_t recv_ns = 0;  // self wall time in completed recv calls
  uint64_t cpu_ns = 0;   // self thread-CPU time in completed calls
  uint64_t sends = 0;    // messages handed to send / send_batch
  uint64_t recvs = 0;    // completed recv calls
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t wrap_ns = 0;
  uint64_t wraps = 0;

  LayerTotals operator-(const LayerTotals& o) const;
};

std::array<LayerTotals, kLayers> layer_snapshot();

struct DiscoveryTotals {
  uint64_t queries = 0, query_ns = 0;
  uint64_t acquires = 0, acquire_ns = 0;
  uint64_t releases = 0, release_ns = 0;
  uint64_t calls = 0, failed = 0;  // every forwarded call

  DiscoveryTotals operator-(const DiscoveryTotals& o) const;
};

DiscoveryTotals discovery_snapshot();

// Names of the implementations TimedImpl::wrap has bound since the last
// call (the transparency check compares them with the negotiated chain).
std::set<std::string> take_bound_impls();

// Registers every stock chunnel implementation on `rt`. With `timed`,
// each implementation of the measured types is registered wrapped in a
// TimedImpl instead, so both runs offer identical catalogues.
bertha::Result<void> register_stock(bertha::Runtime& rt, bool timed);

// A DiscoveryClient decorator that times query/acquire/release.
bertha::DiscoveryPtr timed_discovery(bertha::DiscoveryPtr inner);

}  // namespace perfbench
