// Shared helpers for the SimProf test suite: synthetic ThreadProfiles with
// controlled phase structure, and tiny cluster configurations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/profile.h"
#include "exec/cluster.h"
#include "hw/mav.h"
#include "support/rng.h"

namespace simprof::testing {

/// Description of one synthetic phase: `count` units whose CPI is drawn from
/// N(mean_cpi, stddev_cpi) and whose stacks are dominated by method
/// `dominant_method` (with a constant background of method 0).
struct SyntheticPhase {
  std::size_t count = 0;
  double mean_cpi = 1.0;
  double stddev_cpi = 0.0;
  jvm::MethodId dominant_method = 1;
};

/// Build a profile with interleaved units from the given phases. Method 0 is
/// a framework-ish method present in every unit; methods are named "m<i>".
inline core::ThreadProfile synthetic_profile(
    const std::vector<SyntheticPhase>& phases, std::uint64_t seed = 7,
    std::uint64_t unit_instrs = 1'000'000) {
  core::ThreadProfile p;
  jvm::MethodId max_method = 0;
  for (const auto& ph : phases) {
    max_method = std::max(max_method, ph.dominant_method);
  }
  for (jvm::MethodId m = 0; m <= max_method; ++m) {
    p.method_names.push_back("m" + std::to_string(m));
    p.method_kinds.push_back(m == 0 ? jvm::OpKind::kFramework
                                    : jvm::OpKind::kMap);
  }

  Rng rng(seed);
  // Interleave phases round-robin so phase membership is non-contiguous,
  // like real SimProf phases.
  std::vector<std::size_t> remaining(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    remaining[i] = phases[i].count;
  }
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (remaining[i] == 0) continue;
      --remaining[i];
      any = true;
      core::UnitRecord u;
      u.unit_id = p.units.size();
      double cpi = phases[i].mean_cpi +
                   phases[i].stddev_cpi * rng.next_gaussian();
      if (cpi < 0.05) cpi = 0.05;
      u.counters.instructions = unit_instrs;
      u.counters.cycles =
          static_cast<std::uint64_t>(cpi * static_cast<double>(unit_instrs));
      u.methods = {jvm::MethodId{0}, phases[i].dominant_method};
      u.counts = {10, 30};
      p.units.push_back(std::move(u));
    }
  }
  // Deterministic sparse MAV blocks so mav/combined feature modes have
  // signal. A separate Rng keeps the CPI/stack draws above bit-identical to
  // what freq-mode tests have always seen; kFreq features ignore MAV.
  Rng mav_rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t i = 0; i < p.units.size(); ++i) {
    if (i % 7 == 6) continue;  // some units keep an all-zero MAV
    for (std::size_t b = 0; b < hw::kMavDim; ++b) {
      if (mav_rng.next_bool(0.4)) {
        p.units[i].mav.counts[b] = mav_rng.next_below(2048);
      }
    }
  }
  return p;
}

/// A small, fast cluster configuration for engine tests.
inline exec::ClusterConfig tiny_cluster_config(std::uint64_t seed = 42) {
  exec::ClusterConfig cfg;
  cfg.memory.num_cores = 2;
  cfg.unit_instrs = 100'000;
  cfg.snapshot_interval = 10'000;
  cfg.seed = seed;
  return cfg;
}

/// One FNV-1a step per byte of `v`, least significant byte first.
inline std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// FNV-1a digest of every chunk the profiled core executes: instructions,
/// each reference's line and flags, and the live frames.
class ChunkDigest final : public exec::OpTapeSink {
 public:
  void on_chunk(std::uint64_t instrs, std::span<const hw::MemRef> refs,
                std::uint32_t, std::span<const jvm::MethodId> frames) override {
    mix(instrs);
    mix(refs.size());
    for (const hw::MemRef& r : refs) {
      mix(r.line);
      mix((r.write ? 2u : 0u) | (r.prefetchable ? 1u : 0u));
    }
    mix(frames.size());
    for (const jvm::MethodId m : frames) mix(m);
    ++chunks;
  }
  void on_boundary_rng(std::uint64_t, const RngState&) override {}
  std::uint64_t hash = kFnv1aOffset;
  std::uint64_t chunks = 0;

 private:
  void mix(std::uint64_t v) { hash = fnv1a_mix(hash, v); }
};

}  // namespace simprof::testing
