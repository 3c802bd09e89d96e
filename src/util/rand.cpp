#include "util/rand.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <random>

namespace bertha {

namespace {
uint64_t splitmix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Rng::next_below(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::next_in(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  next_below(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return next_double() < p;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xdeadbeefcafef00dULL); }

std::string make_unique_id() {
  static const uint64_t seed = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<uint64_t> counter{0};
  // splitmix64 of seed + n*golden is a bijection of n: unique per call.
  uint64_t x = seed + counter.fetch_add(1) * 0x9e3779b97f4a7c15ULL;
  uint64_t v = splitmix64(x) ^ (static_cast<uint64_t>(::getpid()) << 48);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace bertha
