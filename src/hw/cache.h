// Set-associative LRU cache model.
//
// The hardware-counter substrate that stands in for perf_event: SimProf needs
// per-sampling-unit IPC / miss counts whose variation is *caused* by data
// access behaviour (sort partition sizes, random reduce accesses, cold caches
// after OS migration, LLC sharing between executor threads). A mechanistic
// cache model produces those effects instead of sampling them from a
// distribution.
//
// Addresses are line-granular: the workload kernels emit one access per
// distinct cache-line touch (see access_stream.h), so "miss rate" here is a
// per-line-touch rate and all within-line hits are folded into the base CPI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/assert.h"

namespace simprof {
class BinaryWriter;
class BinaryReader;
}  // namespace simprof

namespace simprof::hw {

using LineAddr = std::uint64_t;  ///< cache-line index (byte address >> 6)

inline constexpr std::uint64_t kLineBytes = 64;

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t ways = 8;

  std::size_t num_sets() const {
    SIMPROF_EXPECTS(ways > 0, "cache needs at least one way");
    const std::uint64_t lines = size_bytes / kLineBytes;
    SIMPROF_EXPECTS(lines >= ways, "cache smaller than one set");
    return static_cast<std::size_t>(lines / ways);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t accesses() const { return hits + misses; }
  double miss_rate() const {
    const auto a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(a);
  }
};

/// A single cache level. For the shared LLC, `set_effective_ways` models
/// capacity pressure from concurrently running executor threads: a line only
/// counts as resident while its LRU position is inside the effective ways, so
/// pressure p ≈ ways/p usable ways per thread. (MRU order is maintained over
/// all physical ways so releasing pressure restores capacity.)
class Cache {
 public:
  /// The set count (size_bytes / 64 / ways) must be a power of two.
  explicit Cache(const CacheConfig& cfg);

  /// True on hit. Miss inserts the line (write-allocate for both reads and
  /// writes; this model does not distinguish dirty state).
  bool access(LineAddr line);

  /// Invalidate everything (OS-migration cold-cache events).
  void flush();

  void set_effective_ways(std::uint32_t w) {
    effective_ways_ = std::min(std::max<std::uint32_t>(w, 1), cfg_.ways);
  }
  std::uint32_t effective_ways() const { return effective_ways_; }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  const CacheConfig& config() const { return cfg_; }

  /// Serialize the full warm state (tag arrays in MRU order, pressure,
  /// hit/miss counters) for unit-boundary checkpoints. Only occupied ways
  /// are written: one u8 per set counting the ways up to its last valid
  /// one, then those tags. Geometry is written too: load_state throws
  /// SerializeError when the archive's geometry does not match this cache,
  /// so a checkpoint can never be restored into a differently shaped
  /// hierarchy, and validates the occupancy section before touching any
  /// state, so a failed load leaves the cache unchanged.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  CacheConfig cfg_;
  std::size_t sets_;  ///< a power of two: access() masks, never divides
  std::uint32_t effective_ways_;
  // ways_[set*ways + i] is the i-th most recently used line of the set;
  // kInvalid marks an empty slot. access() inserts only at MRU and flush()
  // empties whole caches, so a set's valid ways always form a prefix.
  static constexpr LineAddr kInvalid = ~LineAddr{0};
  std::vector<LineAddr> ways_;
  CacheStats stats_;
};

}  // namespace simprof::hw
