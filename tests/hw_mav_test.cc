// Unit tests for the memory-access-vector tracker: every MavBlock must equal
// a naive LRU-stack reference, across hot/cold mixes, unit resets,
// hash-table and Fenwick-tree growth inside a unit, and generation-stamp
// wraparound.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "hw/mav.h"
#include "support/assert.h"
#include "support/rng.h"

namespace simprof::hw {
namespace {

using Touch = std::pair<LineAddr, AccessLevel>;

/// The MAV of one unit by Mattson's LRU stack: a re-touched line's stack
/// distance is its depth below the top, the lines touched since. O(n·d).
MavBlock reference_block(const std::vector<Touch>& unit) {
  MavBlock b;
  std::vector<LineAddr> stack;  // most recent touch last
  for (const auto& [line, level] : unit) {
    const auto it = std::find(stack.begin(), stack.end(), line);
    if (it == stack.end()) {
      ++b.counts[kColdBucket];
    } else {
      ++b.counts[reuse_bucket(static_cast<std::uint64_t>(stack.end() - it - 1))];
      stack.erase(it);
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
  // end checks that both kept every timestamp.
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
  ReuseTracker tracker;
  EXPECT_EQ(mismatching_units(tracker, {unit, unit, {}, unit}), 0u);
}

TEST(ReuseTracker, GenerationWraparoundForgetsStaleSlots) {
  // With a 1–3 bit stamp the generation wraps every 1–7 resets. Units drawn
  // from a tiny line universe re-touch the previous units' lines, which
  // must be cold again in every new unit, before and after each wrap.
  for (const unsigned bits : {1u, 2u, 3u, 32u}) {
    Rng rng(100 + bits);
    std::vector<std::vector<Touch>> units;
    for (int u = 0; u < 60; ++u) {
      units.push_back(random_unit(rng, rng.next_below(200), 0.2, 32));
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
