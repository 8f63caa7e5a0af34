// Memory hierarchy + cycle cost model + PMU counters.
//
// Layout mirrors the paper's testbed class of machine (Core i7): per-core
// private L1D and L2, one LLC shared by all simulated cores. The shared LLC
// is where inter-thread interference ("phase interleaving" in Section
// III-B.1) comes from: the wave scheduler tells the memory system how many
// cores are concurrently busy and each core's effective LLC associativity is
// divided accordingly.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/access_stream.h"
#include "hw/cache.h"
#include "hw/mav.h"
#include "support/assert.h"

namespace simprof::hw {

/// Cycle cost model. Latencies are per line-touch; within-line hits are part
/// of base_cpi. Prefetchable DRAM misses pay the reduced prefetch penalty.
struct CostModel {
  double base_cpi = 0.40;           ///< issue-limited CPI with all-L1 hits
  double l1_hit_cycles = 1.0;       ///< extra cycles per simulated L1 hit
  double l2_hit_cycles = 12.0;
  double llc_hit_cycles = 38.0;
  double dram_cycles = 180.0;
  double dram_prefetched_cycles = 24.0;
  double clock_ghz = 2.0;           ///< virtual clock for SECOND intervals
};

/// perf_event-style counter block, one per simulated core/executor thread.
struct PmuCounters {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;  // accumulated as double internally, see Core
  std::uint64_t line_touches = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t migrations = 0;

  double cpi() const {
    return instructions == 0
               ? 0.0
               : static_cast<double>(cycles) / static_cast<double>(instructions);
  }
  double ipc() const {
    return cycles == 0
               ? 0.0
               : static_cast<double>(instructions) / static_cast<double>(cycles);
  }

  PmuCounters delta_since(const PmuCounters& earlier) const;
};

struct MemorySystemConfig {
  CacheConfig l1{32 * 1024, 8};
  CacheConfig l2{256 * 1024, 8};
  CacheConfig llc{8 * 1024 * 1024, 16};
  CostModel cost;
  std::uint32_t num_cores = 4;
};

/// The full hierarchy. Not thread-safe: the simulation is single-host-thread
/// and deterministic by design (cores are *simulated* concurrency).
class MemorySystem {
 public:
  explicit MemorySystem(const MemorySystemConfig& cfg);

  std::uint32_t num_cores() const { return static_cast<std::uint32_t>(l1_.size()); }
  const MemorySystemConfig& config() const { return cfg_; }

  /// Cycle cost of one reference plus which level served it (the MAV
  /// tracker's input; see hw/mav.h).
  struct AccessOutcome {
    double cycles = 0.0;
    AccessLevel level = AccessLevel::kL1;
  };

  /// Replay one reference for `core`; returns the cost and serving level.
  /// The hot path: `core` is not range-checked (callers hold a valid one).
  AccessOutcome access_outcome(std::uint32_t core, const MemRef& ref) {
    const CostModel& c = cfg_.cost;
    if (l1_[core].access(ref.line)) return {c.l1_hit_cycles, AccessLevel::kL1};
    if (l2_[core].access(ref.line)) return {c.l2_hit_cycles, AccessLevel::kL2};
    if (llc_.access(ref.line)) return {c.llc_hit_cycles, AccessLevel::kLlc};
    return ref.prefetchable
               ? AccessOutcome{c.dram_prefetched_cycles,
                               AccessLevel::kDramPrefetched}
               : AccessOutcome{c.dram_cycles, AccessLevel::kDram};
  }

  /// Replay one reference for `core`; returns the cycle cost of the touch.
  double access(std::uint32_t core, const MemRef& ref) {
    SIMPROF_EXPECTS(core < l1_.size(), "core out of range");
    return access_outcome(core, ref).cycles;
  }

  /// OS migrated the executor thread: its private caches go cold.
  void migrate(std::uint32_t core);

  /// `busy` cores are concurrently active → each gets llc_ways/busy ways.
  void set_llc_pressure(std::uint32_t busy);

  const Cache& l1(std::uint32_t core) const { return l1_.at(core); }
  const Cache& l2(std::uint32_t core) const { return l2_.at(core); }
  const Cache& llc() const { return llc_; }

  /// Mutable access for checkpoint restore (core/checkpoint.cc).
  Cache& l1(std::uint32_t core) { return l1_.at(core); }
  Cache& l2(std::uint32_t core) { return l2_.at(core); }
  Cache& llc() { return llc_; }

 private:
  MemorySystemConfig cfg_;
  std::vector<Cache> l1_;
  std::vector<Cache> l2_;
  Cache llc_;
};

}  // namespace simprof::hw
