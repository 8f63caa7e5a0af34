// Memory-access vectors (MAV): per-unit memory-behaviour signatures.
//
// "Memory Access Vectors" (Caculo et al.) showed that sampling fidelity
// improves when sampling units are characterized by *memory behaviour*, not
// just instruction mix. This module gives the oracle pass that vocabulary:
// while the profiled core replays its references through the cache
// hierarchy, a ReuseTracker folds every touch into a fixed-width MavBlock —
// a log2-bucketed reuse-distance histogram plus a which-level-served-it
// histogram. The block is reset at every sampling-unit boundary, so a unit's
// MAV depends only on the unit's own reference stream (plus the warm cache
// state it inherited, via the level histogram) — which is exactly what makes
// checkpointed tape replay reproduce it bit-identically: restore the cache
// state, re-execute the unit's tape, and the tracker sees the same touches
// in the same order.
//
// Reuse distance here is the classic stack distance: the number of
// *distinct* cache lines touched between two consecutive touches of the same
// line, computed exactly with a last-position map plus a Fenwick tree over
// access timestamps (O(log r) per access, r = the reuse time: touches since
// the line's previous touch).
// First touches within a unit land in the dedicated cold bucket — the
// tracker is intra-unit by construction, so "cold" means "no prior touch in
// this unit", a deterministic property of the unit itself.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/cache.h"

namespace simprof::hw {

/// Which level of the hierarchy served a reference (cost-model order).
enum class AccessLevel : std::uint8_t {
  kL1 = 0,
  kL2 = 1,
  kLlc = 2,
  kDram = 3,
  kDramPrefetched = 4,
};

/// Reuse-distance buckets: bucket 0 holds distance 0 (immediate re-touch),
/// bucket b in [1, 18] holds distances with bit_width d == b (i.e. d in
/// [2^(b-1), 2^b)), saturating at bucket 18; bucket 19 is the cold bucket
/// (first touch of the line within the unit).
inline constexpr std::size_t kReuseBuckets = 20;
inline constexpr std::size_t kColdBucket = kReuseBuckets - 1;
/// One slot per AccessLevel value.
inline constexpr std::size_t kLevelSlots = 5;
/// Total MAV width: reuse histogram followed by the level histogram.
inline constexpr std::size_t kMavDim = kReuseBuckets + kLevelSlots;

/// Reuse-distance bucket for a finite stack distance.
std::size_t reuse_bucket(std::uint64_t distance);

/// One sampling unit's memory-access vector: counts[0, kReuseBuckets) is the
/// reuse-distance histogram (cold touches in kColdBucket), counts at
/// kReuseBuckets + level is the per-level service histogram. Both halves sum
/// to the number of tracked line touches.
struct MavBlock {
  std::array<std::uint64_t, kMavDim> counts{};

  std::uint64_t reuse(std::size_t bucket) const { return counts[bucket]; }
  std::uint64_t level(AccessLevel l) const {
    return counts[kReuseBuckets + static_cast<std::size_t>(l)];
  }
  std::uint64_t total() const;

  bool operator==(const MavBlock&) const = default;
};

/// Exact intra-unit reuse-distance tracker. Feed it every line touch of the
/// profiled core (in execution order) with the level that served it; read
/// block() at the unit boundary and reset(). State is O(touches of the
/// longest unit so far); reset is O(1) and keeps capacity, so steady-state
/// units neither reallocate nor clear.
///
/// Last touches live in a flat open-addressing table (linear probing) whose
/// slots carry the unit's generation stamp: a slot whose stamp is not the
/// current one is empty, so reset() just advances the stamp. Line addresses
/// come from a bump allocator, but the engines reserve many 64 MB regions
/// they touch only in part, so a dense last-touch array would cost RSS.
class ReuseTracker {
 public:
  /// `stamp_bits` narrows the generation stamp below its 32-bit default so
  /// tests can reach the wraparound (which clears every slot) quickly.
  explicit ReuseTracker(unsigned stamp_bits = 32);

  void record(LineAddr line, AccessLevel level);
  /// Hint that `line` is recorded soon: prefetches its table slot, whose
  /// load is otherwise a host cache miss for large working sets.
  void prefetch(LineAddr line) const {
    __builtin_prefetch(&slots_[(line * kGolden) >> shift_]);
  }
  void reset();
  const MavBlock& block() const { return block_; }
  /// No touches recorded since the last reset (checkpoint sequence points
  /// happen exactly here, so trackers never need snapshotting).
  bool empty() const { return now_ == 0; }

 private:
  struct Slot {
    LineAddr line = 0;
    std::uint32_t time = 0;   ///< timestamp of the line's latest touch
    std::uint32_t stamp = 0;  ///< generation; 0 never matches a live unit
  };

  /// Fibonacci hashing: the top bits of line·2⁶⁴/φ index the table.
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  std::uint32_t marks_after(std::uint32_t t0) const;
  void append_mark();
  void grow_table();

  MavBlock block_;
  std::vector<Slot> slots_;  ///< power-of-two capacity
  unsigned shift_ = 0;       ///< 64 − log2(slots_.size()), for hashing
  std::uint32_t stamp_ = 1;
  std::uint32_t max_stamp_ = 0;
  /// Lines touched since reset (sizes the table).
  std::uint32_t distinct_ = 0;
  /// Fenwick tree (1-based) over timestamps; a mark at a position means some
  /// line's *most recent* touch happened then, so the marks in (t0, now_]
  /// are the distinct lines touched after t0. Only nodes [1, now_] are live:
  /// node t is rebuilt from its children when timestamp t is appended, so
  /// reset() leaves the stale nodes of longer units behind, unread.
  std::vector<std::uint32_t> bit_;
  std::uint32_t now_ = 0;
};

}  // namespace simprof::hw
