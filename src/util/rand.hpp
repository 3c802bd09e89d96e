// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every randomized component in bertha-cpp (SimNet loss, workload
// generators, property tests) takes an explicit seed so runs are
// reproducible.
#pragma once

#include <cstdint>
#include <string>

namespace bertha {

// xoshiro256** 1.0 (Blackman & Vigna, public domain algorithm),
// seeded via splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t next_u64();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t next_below(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t next_in(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double next_double();

  // True with probability p (clamped to [0,1]).
  bool chance(double p);

  // Fork a statistically independent child stream.
  Rng split();

 private:
  uint64_t s_[4];
};

// Returns a process-unique random identifier (16 hex digits). Not
// reproducible: the process draws one std::random_device seed on first
// use and mixes a call counter and the pid into it, so ids never repeat
// within a process and collide across processes only by chance.
std::string make_unique_id();

}  // namespace bertha
