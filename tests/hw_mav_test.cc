// Unit tests for the memory-access-vector tracker: every MavBlock must equal
// a naive LRU-stack reference, across hot/cold mixes, unit resets,
// hash-table and Fenwick-tree growth inside a unit, reuse distances in every
// bucket, short units after long ones (whose stale tree nodes the tracker
// keeps) and generation-stamp wraparound.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "hw/mav.h"
#include "support/assert.h"
#include "support/rng.h"

namespace simprof::hw {
namespace {

using Touch = std::pair<LineAddr, AccessLevel>;

/// The MAV of one unit by Mattson's LRU stack: a re-touched line's stack
/// distance is its depth below the top, the lines touched since. O(n·d); a
/// seen-set keeps first touches O(1), so units can be deep.
MavBlock reference_block(const std::vector<Touch>& unit) {
  MavBlock b;
  std::vector<LineAddr> stack;  // most recent touch last
  std::unordered_set<LineAddr> seen;
  for (const auto& [line, level] : unit) {
    if (seen.insert(line).second) {
      ++b.counts[kColdBucket];
    } else {
      const auto it = std::find(stack.rbegin(), stack.rend(), line);
      ++b.counts[reuse_bucket(static_cast<std::uint64_t>(it - stack.rbegin()))];
      stack.erase(std::next(it).base());
    }
    stack.push_back(line);
    ++b.counts[kReuseBuckets + static_cast<std::size_t>(level)];
  }
  return b;
}

/// A unit of `length` touches: a `hot` fraction re-touches a small working
/// set, the rest are spread over lines in a few regions 64 MB apart (the
/// bump allocator's layout). A small `universe` makes units share lines.
std::vector<Touch> random_unit(Rng& rng, std::size_t length, double hot,
                               std::uint64_t universe) {
  constexpr LineAddr kRegionLines = (64ULL << 20) / 64;
  std::vector<Touch> unit;
  for (std::size_t i = 0; i < length; ++i) {
    LineAddr line;
    if (rng.next_bool(hot)) {
      line = 1000 + rng.next_below(16);
    } else {
      line = (1 + rng.next_below(4)) * kRegionLines + rng.next_below(universe);
    }
    unit.emplace_back(line, static_cast<AccessLevel>(rng.next_below(5)));
  }
  return unit;
}

/// A unit whose reuse distances land in every bucket: a cold sweep over
/// 2^18 + 32 lines, then re-touches at distance 0 and at ever deeper lines,
/// distances 2^k + k for k = 0..18 (each re-touched line sits below every
/// line moved to the top before it, so its distance is exactly its depth).
std::vector<Touch> every_bucket_unit() {
  constexpr LineAddr kLines = (1u << 18) + 32;
  std::vector<Touch> unit;
  for (LineAddr l = 0; l < kLines; ++l) {
    unit.emplace_back(5 + 3 * l, AccessLevel::kDram);
  }
  unit.emplace_back(5 + 3 * (kLines - 1), AccessLevel::kL1);  // distance 0
  std::vector<LineAddr> depths;
  for (unsigned k = 0; k <= 18; ++k) depths.push_back((LineAddr{1} << k) + k);
  for (const LineAddr d : depths) {
    unit.emplace_back(5 + 3 * (kLines - 1 - d), AccessLevel::kLlc);
  }
  return unit;
}

/// Feeds `units` through one tracker, resetting between units, and counts
/// the units whose block differs from the reference.
std::size_t mismatching_units(ReuseTracker& tracker,
                              const std::vector<std::vector<Touch>>& units) {
  std::size_t bad = 0;
  for (const auto& unit : units) {
    for (const auto& [line, level] : unit) tracker.record(line, level);
    EXPECT_EQ(tracker.empty(), unit.empty());
    bad += tracker.block() == reference_block(unit) ? 0 : 1;
    tracker.reset();
    EXPECT_TRUE(tracker.empty());
    EXPECT_EQ(tracker.block(), MavBlock{});
  }
  return bad;
}

TEST(ReuseTracker, MatchesStackDistanceReferenceOverHotColdMixes) {
  Rng rng(17);
  std::vector<std::vector<Touch>> units;
  for (int u = 0; u < 120; ++u) {
    const double hot = std::vector<double>{0.0, 0.3, 0.7, 0.95}[u % 4];
    const std::size_t length = rng.next_below(u % 10 == 0 ? 3000 : 400);
    units.push_back(random_unit(rng, length, hot, u % 3 == 0 ? 64 : 1 << 20));
  }
  ReuseTracker tracker;
  EXPECT_EQ(mismatching_units(tracker, units), 0u);
}

TEST(ReuseTracker, GrowsTableAndTreeInsideOneUnit) {
  // Thousands of distinct lines force the hash table to rehash while the
  // unit's earlier lines are live, and more than 1024 touches force the
  // Fenwick tree past its initial size; re-touching the first lines at the
  // end checks that both kept every timestamp. reset() keeps the tree, so
  // the short units after a long one run over stale nodes that must never
  // be read.
  Rng rng(5);
  std::vector<Touch> unit;
  for (LineAddr l = 0; l < 5000; ++l) {
    unit.emplace_back(l * 977 + 3, AccessLevel::kDram);
  }
  for (LineAddr l = 0; l < 300; ++l) {
    unit.emplace_back(l * 977 + 3, AccessLevel::kL2);
  }
  auto mixed = random_unit(rng, 6000, 0.5, 1 << 16);
  unit.insert(unit.end(), mixed.begin(), mixed.end());
  const auto deep = every_bucket_unit();
  std::vector<std::vector<Touch>> units = {unit, unit, {}, unit, deep};
  for (int u = 0; u < 40; ++u) {
    units.push_back(random_unit(rng, rng.next_below(u % 8 == 0 ? 3000 : 300),
                                0.5, 1 << 10));
  }
  units.push_back(deep);
  units.push_back(random_unit(rng, 100, 0.2, 1 << 6));
  ReuseTracker tracker;
  EXPECT_EQ(mismatching_units(tracker, units), 0u);

  // The deep unit reaches every reuse bucket, the saturating one included.
  const MavBlock want = reference_block(deep);
  for (std::size_t b = 0; b < kReuseBuckets; ++b) {
    EXPECT_GT(want.reuse(b), 0u) << "bucket " << b;
  }
  EXPECT_EQ(want.reuse(kColdBucket - 1), 2u);  // 2^17 + 17 and 2^18 + 18
}

TEST(ReuseTracker, GenerationWraparoundForgetsStaleSlots) {
  // With a 1–3 bit stamp the generation wraps every 1–7 resets. Units drawn
  // from a tiny line universe re-touch the previous units' lines, which
  // must be cold again in every new unit, before and after each wrap.
  // Every fifth unit is long, so wraps also land after units that left
  // stale tree nodes behind.
  for (const unsigned bits : {1u, 2u, 3u, 32u}) {
    Rng rng(100 + bits);
    std::vector<std::vector<Touch>> units;
    for (int u = 0; u < 60; ++u) {
      units.push_back(random_unit(
          rng, rng.next_below(u % 5 == 0 ? 2500 : 200), 0.2, 32));
    }
    ReuseTracker tracker(bits);
    EXPECT_EQ(mismatching_units(tracker, units), 0u) << bits << " stamp bits";
  }
}

TEST(ReuseTracker, ResetOfAnEmptyUnitIsANoOp) {
  ReuseTracker tracker(1);
  tracker.reset();
  tracker.reset();
  tracker.record(7, AccessLevel::kL1);
  tracker.record(7, AccessLevel::kL1);
  MavBlock want;
  want.counts[kColdBucket] = 1;
  want.counts[0] = 1;
  want.counts[kReuseBuckets + 0] = 2;
  EXPECT_EQ(tracker.block(), want);
}

TEST(ReuseTracker, RejectsStampWidthOutsideOneToThirtyTwoBits) {
  EXPECT_THROW(ReuseTracker(0), ContractViolation);
  EXPECT_THROW(ReuseTracker(33), ContractViolation);
}

}  // namespace
}  // namespace simprof::hw
