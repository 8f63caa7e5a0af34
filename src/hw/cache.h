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

#include <emmintrin.h>

#include <algorithm>
#include <bit>
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

/// Every line address stays below this bound (AddressSpace::allocate
/// enforces it), so a cache tag fits 32 bits and the all-ones tag is free to
/// mark an empty way.
inline constexpr LineAddr kLineLimit = 0xFFFF'FFFF;

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
///
/// Each set holds 16 32-bit tag lanes and 16 one-byte ages; a way's age is
/// its position in the set's MRU order (0 = most recently used), so a set's
/// ages are always a permutation of 0..ways−1. An access is a handful of SSE2 operations: four
/// tag compares find the way, and one compare, subtract and and-not age
/// every more recent way and make the touched one the youngest.
class Cache {
 public:
  static constexpr std::uint32_t kMaxWays = 16;

  /// The set count (size_bytes / 64 / ways) must be a power of two and the
  /// associativity at most kMaxWays.
  explicit Cache(const CacheConfig& cfg);

  /// True on hit. Miss inserts the line (write-allocate for both reads and
  /// writes; this model does not distinguish dirty state). `line` must be
  /// below kLineLimit.
  bool access(LineAddr line);

  /// Invalidate everything (OS-migration cold-cache events): every way
  /// empty, ages 0..ways−1.
  void flush();

  void set_effective_ways(std::uint32_t w) {
    effective_ways_ = std::min(std::max<std::uint32_t>(w, 1), cfg_.ways);
  }
  std::uint32_t effective_ways() const { return effective_ways_; }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  const CacheConfig& config() const { return cfg_; }

  /// Serialize the full warm state (each set's tags in MRU order, pressure,
  /// hit/miss counters) for unit-boundary checkpoints. Only occupied ways
  /// are written: one u8 per set counting the ways up to its last valid
  /// one, then those tags. Geometry is written too: load_state throws
  /// SerializeError when the archive's geometry does not match this cache,
  /// so a checkpoint can never be restored into a differently shaped
  /// hierarchy, and validates the occupancy section (counts and tags below
  /// kLineLimit) before touching any state, so a failed load leaves the
  /// cache unchanged.
  void save_state(BinaryWriter& w) const;
  void load_state(BinaryReader& r);

 private:
  struct alignas(64) TagLanes {
    std::uint32_t tag[kMaxWays];
  };
  struct alignas(16) AgeLanes {
    std::uint8_t age[kMaxWays];
  };
  /// Marks an empty way; padding lanes (ways ≥ cfg_.ways) hold it forever.
  static constexpr std::uint32_t kEmptyTag = 0xFFFF'FFFF;
  /// Padding lanes' age: above every real age in a signed compare, so no
  /// update changes it. (It never decides a victim either way: real lanes
  /// hold each age 0..ways−1 once and precede the padding.)
  static constexpr std::uint8_t kPadAge = 0x7F;

  CacheConfig cfg_;
  std::size_t sets_;  ///< a power of two: access() masks, never divides
  std::uint32_t effective_ways_;
  std::vector<TagLanes> tags_;
  std::vector<AgeLanes> ages_;
  CacheStats stats_;
};

inline bool Cache::access(LineAddr line) {
  const std::size_t set = static_cast<std::size_t>(line) & (sets_ - 1);
  const auto* lanes = reinterpret_cast<const __m128i*>(tags_[set].tag);
  const __m128i key = _mm_set1_epi32(static_cast<int>(line));
  const __m128i eq01 = _mm_packs_epi32(
      _mm_cmpeq_epi32(_mm_load_si128(lanes), key),
      _mm_cmpeq_epi32(_mm_load_si128(lanes + 1), key));
  const __m128i eq23 = _mm_packs_epi32(
      _mm_cmpeq_epi32(_mm_load_si128(lanes + 2), key),
      _mm_cmpeq_epi32(_mm_load_si128(lanes + 3), key));
  const auto match =
      static_cast<unsigned>(_mm_movemask_epi8(_mm_packs_epi16(eq01, eq23)));

  // The touched way is the matching one, or on a miss the LRU victim (age
  // ways−1). Ages below the touched age grow by one and the touched way's
  // becomes 0: exactly a move-to-front of the MRU-ordered list.
  std::uint8_t* const age_lanes = ages_[set].age;
  const unsigned age =
      match != 0 ? age_lanes[std::countr_zero(match)] : cfg_.ways - 1;
  if (age == 0 && match != 0) {
    // A hit on the most recent way leaves the order as it is.
    ++stats_.hits;
    return true;
  }
  auto* const age_ptr = reinterpret_cast<__m128i*>(age_lanes);
  const __m128i ages = _mm_load_si128(age_ptr);
  const __m128i age_v = _mm_set1_epi8(static_cast<char>(age));
  const __m128i younger = _mm_cmplt_epi8(ages, age_v);
  const __m128i touched = _mm_cmpeq_epi8(ages, age_v);
  _mm_store_si128(age_ptr,
                  _mm_andnot_si128(touched, _mm_sub_epi8(ages, younger)));
  if (match == 0) {
    // Only a miss writes a tag: a narrow store under the next access's wide
    // tag loads would stall store forwarding when hot lines share a set.
    const auto victim = static_cast<unsigned>(
        std::countr_zero(static_cast<unsigned>(_mm_movemask_epi8(touched))));
    tags_[set].tag[victim] = static_cast<std::uint32_t>(line);
  }

  // A line outside the pressured capacity counts as a miss.
  const bool hit = match != 0 && age < effective_ways_;
  stats_.hits += hit ? 1 : 0;
  stats_.misses += hit ? 0 : 1;
  return hit;
}

}  // namespace simprof::hw
