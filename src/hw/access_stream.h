// Access-pattern streams: the memory-behaviour vocabulary of the workload
// kernels.
//
// A stream yields line-granular references (one per distinct cache-line
// touch). Workload kernels describe their data-structure traffic with these
// streams — sequential scans over input splits, random probes into hash
// maps, Zipf-skewed probes (hot keys), strided column walks — and the memory
// system replays them through the cache hierarchy. A checkpoint replay
// feeds a recorded reference tape through the same type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hw/cache.h"
#include "support/rng.h"

namespace simprof::hw {

struct MemRef {
  LineAddr line = 0;
  bool write = false;
  /// Sequential/strided traffic is caught by the hardware prefetcher, so a
  /// DRAM miss on a prefetchable reference is charged a reduced penalty.
  bool prefetchable = false;
};

/// A finite reference generator, held by value and drained in batches with
/// take(). A default-constructed stream is empty (pure-compute work).
///
/// Random/Zipf streams derive each reference from a counter-based hash of
/// (stream seed, position) instead of mutating a shared generator: their
/// constructors consume exactly one draw from the parent Rng to capture the
/// seed. The golden seed-42 profile bytes depend on this derivation.
class AccessStream {
 public:
  AccessStream() = default;

  /// Every `stride_lines`-th line over [base_addr, base_addr + bytes)
  /// (0 is treated as 1). Stride 1 is a sequential scan. Prefetchable.
  static AccessStream strided(std::uint64_t base_addr, std::uint64_t bytes,
                              std::uint64_t stride_lines = 1,
                              bool write = false);
  /// `touches` uniformly random lines within the region. With
  /// `write_fraction` ≥ 0 each reference is a write with that probability
  /// (its own hash lane); otherwise every reference carries `write`.
  static AccessStream random(std::uint64_t base_addr, std::uint64_t bytes,
                             std::uint64_t touches, Rng& rng,
                             bool write = false, double write_fraction = -1.0);
  /// Zipf-skewed random lines (hot-key hash-map behaviour). The skew is
  /// applied over line indices directly: low indices are hot.
  static AccessStream zipf(std::uint64_t base_addr, std::uint64_t bytes,
                           std::uint64_t touches, double skew, Rng& rng,
                           bool write = false);
  /// A recorded reference sequence, verbatim. Borrows `tape`, which must
  /// outlive the stream.
  static AccessStream replay(std::span<const MemRef> tape);

  /// Write the next at most `max` references to `out`; returns how many
  /// (fewer only at the end of the stream).
  std::size_t take(MemRef* out, std::size_t max);

  /// Total references this stream produces (for cycle apportioning).
  std::uint64_t total_refs() const { return count_; }

 private:
  enum class Kind : std::uint8_t { kStrided, kRandom, kZipf, kReplay };

  Kind kind_ = Kind::kStrided;
  bool write_ = false;
  std::uint64_t count_ = 0;
  std::uint64_t pos_ = 0;
  LineAddr first_ = 0;
  /// Strided: the stride in lines. Random/Zipf: the region size in lines.
  std::uint64_t span_ = 1;
  std::uint64_t seed_ = 0;
  /// Random: the write fraction (< 0: every reference carries write_).
  /// Zipf: the inverse-power exponent 1 / (1 − skew).
  double shape_ = 0.0;
  const MemRef* tape_ = nullptr;
};

/// Bump allocator handing out non-overlapping address regions for the
/// simulated data structures of one workload run.
class AddressSpace {
 public:
  /// Reserve `bytes` (rounded up to a line) and return the base address.
  /// Throws ContractViolation rather than hand out a line at or above
  /// kLineLimit.
  std::uint64_t allocate(std::uint64_t bytes);

  std::uint64_t bytes_allocated() const { return next_; }

 private:
  std::uint64_t next_ = kLineBytes;  // keep 0 unused as a sentinel
};

}  // namespace simprof::hw
