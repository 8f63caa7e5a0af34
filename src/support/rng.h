// Deterministic pseudo-random number generation for the whole framework.
//
// Every stochastic component (data synthesis, Kronecker sampling, k-means
// initialisation, stratified sampling, OS-migration events) takes an explicit
// Rng so that a (config, seed) pair reproduces a run bit-for-bit — a hard
// requirement for a profiling framework whose outputs are compared across
// sampling strategies.
#pragma once

#include <cstdint>
#include <limits>

#include "support/assert.h"

namespace simprof {

/// SplitMix64: used to expand a single 64-bit seed into stream state.
/// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Pure position-indexed hash: the index-th draw of a counter-based random
/// stream, as one SplitMix64 expansion of (seed, index). Unlike drawing from
/// a stateful generator, draw i of a seed is the same no matter how many
/// other draws happened. Random/Zipf access streams derive their references
/// this way, and the golden seed-42 profile bytes depend on it.
inline std::uint64_t hash_at(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The full serializable state of an Rng (checkpoint snapshot/restore).
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  bool have_spare_gaussian = false;
  double spare_gaussian = 0.0;

  friend bool operator==(const RngState&, const RngState&) = default;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — the framework's workhorse generator.
/// Satisfies the UniformRandomBitGenerator concept so it composes with
/// <random> distributions where convenient, but the members below avoid
/// libstdc++ distribution objects for cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) {
    SIMPROF_EXPECTS(lo <= hi, "invalid range");
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Standard normal via Box–Muller (deterministic, no <random>).
  double next_gaussian();

  /// Derive an independent child stream (e.g. one per simulated core).
  /// Consumes state, so successive calls yield different streams.
  Rng split();

  /// Deterministic fixed-seed stream derivation: expands (seed, stream_index)
  /// through SplitMix64 into an independent generator. Unlike split(), this
  /// is a pure function — stream i of a seed is the same no matter how many
  /// other streams were forked or in what order, which is what lets
  /// choose_k's parallel k-sweep and k-means restarts reproduce the serial
  /// schedule bit-for-bit on any thread count.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_index);

  /// Snapshot/restore of the complete generator state (checkpointing).
  RngState state() const {
    RngState st;
    for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
    st.have_spare_gaussian = have_spare_gaussian_;
    st.spare_gaussian = spare_gaussian_;
    return st;
  }

  void set_state(const RngState& st) {
    for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
    have_spare_gaussian_ = st.have_spare_gaussian;
    spare_gaussian_ = st.spare_gaussian;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Fisher–Yates shuffle driven by Rng (std::shuffle's algorithm is not
/// specified, so this keeps sample selection reproducible across stdlibs).
template <typename Container>
void shuffle(Container& c, Rng& rng) {
  const auto n = c.size();
  if (n < 2) return;
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i + 1));
    using std::swap;
    swap(c[i], c[j]);
  }
}

}  // namespace simprof
