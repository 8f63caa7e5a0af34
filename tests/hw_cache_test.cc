// Unit tests for the cache model and memory hierarchy: set-associative LRU
// semantics, pressure-partitioned LLC, migration flushes and cost charging.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "hw/access_stream.h"
#include "hw/cache.h"
#include "hw/memory_system.h"
#include "support/assert.h"
#include "support/rng.h"
#include "support/serialize.h"

namespace simprof::hw {
namespace {

CacheConfig small_cache() {
  // 4 sets × 4 ways of 64B lines = 1 KiB.
  return CacheConfig{1024, 4};
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 1u);
}

TEST(Cache, LruEvictionOrder) {
  Cache c(small_cache());  // 4 ways; lines k*4 map to set 0
  for (LineAddr l = 0; l < 4; ++l) c.access(l * 4);  // fill set 0
  EXPECT_TRUE(c.access(0));      // 0 becomes MRU
  EXPECT_FALSE(c.access(16));    // evicts LRU = line 4
  EXPECT_TRUE(c.access(0));      // still resident
  EXPECT_FALSE(c.access(4));     // was evicted
}

TEST(Cache, SetsAreIndependent) {
  Cache c(small_cache());
  c.access(0);   // set 0
  c.access(1);   // set 1
  c.access(2);   // set 2
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(1));
  EXPECT_TRUE(c.access(2));
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(small_cache());
  c.access(0);
  c.access(5);
  c.flush();
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(5));
}

TEST(Cache, EffectiveWaysShrinkCapacity) {
  Cache c(small_cache());
  c.set_effective_ways(2);
  // Fill set 0 with 2 lines: both fit.
  c.access(0);
  c.access(4);
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(4));
  // A third line pushes the LRU of the *effective* window out.
  c.access(8);
  EXPECT_FALSE(c.access(0));  // outside the 2-way effective window
}

TEST(Cache, ReleasingPressureRestoresResidency) {
  Cache c(small_cache());
  c.access(0);
  c.access(4);
  c.access(8);  // 3 resident lines in set 0 (4 physical ways)
  c.set_effective_ways(1);
  EXPECT_FALSE(c.access(4));  // outside pressure window (counts as miss)
  c.set_effective_ways(4);
  EXPECT_TRUE(c.access(8));   // still physically resident
}

TEST(Cache, EffectiveWaysClampedToConfig) {
  Cache c(small_cache());
  c.set_effective_ways(0);
  EXPECT_EQ(c.effective_ways(), 1u);
  c.set_effective_ways(100);
  EXPECT_EQ(c.effective_ways(), 4u);
}

TEST(Cache, RejectsDegenerateGeometry) {
  EXPECT_THROW(Cache(CacheConfig{64, 8}), ContractViolation);  // < one set
  // 3 sets of 4 ways: set indexing masks, so the set count must be a power
  // of two.
  EXPECT_THROW(Cache(CacheConfig{3 * 4 * kLineBytes, 4}), ContractViolation);
}

TEST(Cache, MoreThanSixteenWaysRejected) {
  EXPECT_NO_THROW(Cache(CacheConfig{16 * 2 * kLineBytes, 16}));
  EXPECT_THROW(Cache(CacheConfig{17 * 2 * kLineBytes, 17}),
               ContractViolation);
}

TEST(AddressSpace, RefusesLinesBeyondThe32BitLineSpace) {
  // The bump allocator only counts; no memory is reserved.
  AddressSpace space;  // line 0 is the unused sentinel
  const std::uint64_t last = kLineLimit - 1;  // the highest legal line
  EXPECT_EQ(space.allocate((last - 1) * kLineBytes), kLineBytes);
  EXPECT_EQ(space.allocate(1), last * kLineBytes);
  EXPECT_EQ(space.bytes_allocated(), kLineLimit * kLineBytes);
  EXPECT_THROW(space.allocate(1), ContractViolation);
  EXPECT_EQ(space.bytes_allocated(), kLineLimit * kLineBytes);

  AddressSpace huge;
  EXPECT_THROW(huge.allocate(kLineLimit * kLineBytes), ContractViolation);
  EXPECT_THROW(huge.allocate(~std::uint64_t{0} - kLineBytes),
               ContractViolation);
  EXPECT_EQ(huge.bytes_allocated(), kLineBytes);
}

TEST(CacheStats, MissRate) {
  Cache c(small_cache());
  c.access(0);
  c.access(0);
  c.access(0);
  c.access(64);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

MemorySystemConfig tiny_memory() {
  MemorySystemConfig cfg;
  cfg.l1 = {1024, 4};
  cfg.l2 = {4096, 4};
  cfg.llc = {16384, 8};
  cfg.num_cores = 2;
  return cfg;
}

TEST(MemorySystem, CostsIncreaseDownTheHierarchy) {
  MemorySystem m(tiny_memory());
  const auto& cost = m.config().cost;
  MemRef ref{0, false, false};
  EXPECT_DOUBLE_EQ(m.access(0, ref), cost.dram_cycles);   // cold everywhere
  EXPECT_DOUBLE_EQ(m.access(0, ref), cost.l1_hit_cycles); // now in L1
}

TEST(MemorySystem, PrefetchableMissesAreCheaper) {
  MemorySystem m(tiny_memory());
  MemRef pref{100, false, true};
  MemRef rand{200, false, false};
  EXPECT_LT(m.access(0, pref), m.access(1, rand));
}

TEST(MemorySystem, L2CatchesL1Evictions) {
  MemorySystem m(tiny_memory());
  const auto& cost = m.config().cost;
  // Touch 8 lines mapping to L1 set 0 (L1: 4 sets → stride 4); L1 holds 4,
  // L2 (16 sets... stride 16 needed) — use lines 0,4,8,…,28: all L1 set 0.
  for (LineAddr l = 0; l < 8; ++l) m.access(0, MemRef{l * 4, false, false});
  // Line 0 was evicted from L1 but lives in L2 (L2 set = 0 mod 16 → lines
  // 0 and 16 share an L2 set; 2 of them at most → resident).
  EXPECT_DOUBLE_EQ(m.access(0, MemRef{0, false, false}), cost.l2_hit_cycles);
}

TEST(MemorySystem, PrivateCachesIsolatedSharedLlcVisible) {
  MemorySystem m(tiny_memory());
  const auto& cost = m.config().cost;
  m.access(0, MemRef{7, false, false});  // core 0 pulls line into L1+L2+LLC
  // Core 1 misses privately but hits the shared LLC.
  EXPECT_DOUBLE_EQ(m.access(1, MemRef{7, false, false}),
                   cost.llc_hit_cycles);
}

TEST(MemorySystem, MigrationFlushesPrivateOnly) {
  MemorySystem m(tiny_memory());
  const auto& cost = m.config().cost;
  m.access(0, MemRef{3, false, false});
  m.migrate(0);
  // Private caches are cold, LLC still warm.
  EXPECT_DOUBLE_EQ(m.access(0, MemRef{3, false, false}),
                   cost.llc_hit_cycles);
}

TEST(MemorySystem, PressureShrinksLlcWaysSublinearly) {
  // Effective associativity is ways/sqrt(p): concurrent threads overlap in
  // time, so a strict 1/p partition would overstate interference swings.
  MemorySystem m(tiny_memory());  // 8 LLC ways
  m.set_llc_pressure(4);
  EXPECT_EQ(m.llc().effective_ways(), 4u);  // 8 / sqrt(4)
  m.set_llc_pressure(100);
  EXPECT_EQ(m.llc().effective_ways(), 1u);  // clamped at one way
  m.set_llc_pressure(1);
  EXPECT_EQ(m.llc().effective_ways(), 8u);
  m.set_llc_pressure(2);
  EXPECT_EQ(m.llc().effective_ways(), 5u);  // floor(8 / 1.414)
}

TEST(MemorySystem, CoreOutOfRangeThrows) {
  MemorySystem m(tiny_memory());
  EXPECT_THROW(m.access(2, MemRef{}), ContractViolation);
  EXPECT_THROW(m.migrate(9), ContractViolation);
}

TEST(PmuCounters, DeltaSince) {
  PmuCounters a;
  a.instructions = 100;
  a.cycles = 200;
  a.llc_misses = 5;
  PmuCounters b = a;
  b.instructions = 150;
  b.cycles = 300;
  b.llc_misses = 9;
  const PmuCounters d = b.delta_since(a);
  EXPECT_EQ(d.instructions, 50u);
  EXPECT_EQ(d.cycles, 100u);
  EXPECT_EQ(d.llc_misses, 4u);
  EXPECT_DOUBLE_EQ(d.cpi(), 2.0);
  EXPECT_DOUBLE_EQ(d.ipc(), 0.5);
}

// Parameterized LRU property: for any associativity, a set accessed with a
// cyclic pattern of (ways + 1) distinct lines never hits (classic LRU
// thrash), while a cycle of exactly `ways` lines always hits after warmup.
class LruProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LruProperty, CyclicThrashAndFit) {
  const std::uint32_t ways = GetParam();
  Cache c(CacheConfig{static_cast<std::uint64_t>(ways) * 2 * kLineBytes,
                      ways});  // 2 sets
  const std::size_t sets = c.config().num_sets();
  // Lines mapping to set 0: multiples of `sets`.
  auto line = [&](std::uint32_t i) { return static_cast<LineAddr>(i) * sets; };

  // Fit: cycle over exactly `ways` lines.
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < ways; ++i) c.access(line(i));
  }
  EXPECT_EQ(c.stats().misses, ways);  // only the cold round missed

  // Thrash: cycle over ways + 1 lines — every access misses under LRU.
  Cache t(CacheConfig{static_cast<std::uint64_t>(ways) * 2 * kLineBytes,
                      ways});
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < ways + 1; ++i) t.access(line(i));
  }
  EXPECT_EQ(t.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Associativities, LruProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

/// Reference model: the MRU-ordered way arrays the age-vector kernel
/// replaced. ways_[set * ways + i] is the set's i-th most recently used
/// line; an empty way holds kInvalid, and empty ways form a suffix.
class MruArrayCache {
 public:
  explicit MruArrayCache(const CacheConfig& cfg)
      : cfg_(cfg),
        sets_(cfg.num_sets()),
        eff_(cfg.ways),
        ways_(sets_ * cfg.ways, kInvalid) {}

  bool access(LineAddr line) {
    LineAddr* base = ways_.data() + (line & (sets_ - 1)) * cfg_.ways;
    std::uint32_t i = 0;
    while (i < cfg_.ways && base[i] != line) ++i;
    const bool hit = i < eff_;  // i == ways on a miss: the LRU way falls off
    std::copy_backward(base, base + std::min(i, cfg_.ways - 1),
                       base + std::min(i, cfg_.ways - 1) + 1);
    base[0] = line;
    ++(hit ? stats_.hits : stats_.misses);
    return hit;
  }
  void flush() { std::fill(ways_.begin(), ways_.end(), kInvalid); }
  void set_effective_ways(std::uint32_t w) {
    eff_ = std::clamp<std::uint32_t>(w, 1, cfg_.ways);
  }
  const CacheStats& stats() const { return stats_; }

  /// The archive section Cache::save_state writes for this state.
  std::string state_bytes() const {
    std::ostringstream out(std::ios::binary);
    BinaryWriter w(out);
    w.u64(cfg_.size_bytes);
    w.u32(cfg_.ways);
    w.u32(eff_);
    w.u64(stats_.hits);
    w.u64(stats_.misses);
    std::string counts(sets_, '\0');
    std::vector<LineAddr> tags;
    for (std::size_t set = 0; set < sets_; ++set) {
      const LineAddr* base = ways_.data() + set * cfg_.ways;
      std::uint32_t n = cfg_.ways;
      while (n > 0 && base[n - 1] == kInvalid) --n;
      counts[set] = static_cast<char>(n);
      tags.insert(tags.end(), base, base + n);
    }
    w.str(counts);
    w.vec_u64(tags);
    return out.str();
  }

 private:
  static constexpr LineAddr kInvalid = ~LineAddr{0};
  CacheConfig cfg_;
  std::size_t sets_;
  std::uint32_t eff_;
  std::vector<LineAddr> ways_;
  CacheStats stats_;
};

std::string saved_state(const Cache& c) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  c.save_state(w);
  return out.str();
}

class CacheDifferential : public ::testing::TestWithParam<std::uint32_t> {};

// Drives the kernel and the reference model with one seeded stream —
// a hot region that mostly fits, a cold one that thrashes, pressure changes,
// flushes and a save → load round trip mid-stream — and requires identical
// hit/miss sequences, statistics and archive bytes throughout.
TEST_P(CacheDifferential, MatchesTheMruArrayModel) {
  const std::uint32_t ways = GetParam();
  const CacheConfig cfg{8 * ways * kLineBytes, ways};  // 8 sets
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Cache cache(cfg);
    MruArrayCache ref(cfg);
    const std::uint64_t hot = 8 * ways + 3;
    std::uint64_t hits = 0;
    for (std::uint32_t step = 0; step < 30'000; ++step) {
      const std::uint64_t op = rng.next_below(1000);
      if (op < 4) {
        const auto w = static_cast<std::uint32_t>(rng.next_below(ways + 2));
        cache.set_effective_ways(w);
        ref.set_effective_ways(w);
        ASSERT_EQ(cache.effective_ways(), std::clamp<std::uint32_t>(w, 1, ways));
      } else if (op < 5) {
        cache.flush();
        ref.flush();
      }
      if (step == 15'000) {
        // Restore the reference model's archive into a differently warmed
        // cache and carry on with the restored one.
        Cache restored(cfg);
        for (LineAddr l = 0; l < 500; ++l) restored.access(l * 11 + 7);
        std::istringstream in(ref.state_bytes(), std::ios::binary);
        BinaryReader r(in);
        restored.load_state(r);
        cache = restored;
      }
      const LineAddr line = rng.next_bool(0.8)
                                ? rng.next_below(hot)
                                : hot + rng.next_below(64 * ways);
      const bool hit = cache.access(line);
      ASSERT_EQ(hit, ref.access(line)) << "step " << step << " line " << line;
      hits += hit ? 1 : 0;
      if (step % 1000 == 999) {
        ASSERT_EQ(saved_state(cache), ref.state_bytes()) << "step " << step;
      }
    }
    EXPECT_EQ(cache.stats().hits, ref.stats().hits);
    EXPECT_EQ(cache.stats().misses, ref.stats().misses);
    EXPECT_EQ(saved_state(cache), ref.state_bytes());
    EXPECT_GT(hits, 0u);
    EXPECT_GT(cache.stats().misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheDifferential,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace simprof::hw
