// Tests for the key-ordered kernels shared by MiniHadoop and MiniSpark
// (support/sort.h): the radix sort_by_key and the streaming merge_by_key
// must give exactly the order of std::stable_sort by key, which the engines'
// order-sensitive folds and every profile byte depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "support/sort.h"

namespace simprof::support {
namespace {


/// Pairs whose value is their input position, so an order that breaks ties
/// differently from std::stable_sort shows as a value mismatch.
template <typename K>
std::vector<std::pair<K, std::uint64_t>> tagged(const std::vector<K>& keys) {
  std::vector<std::pair<K, std::uint64_t>> v;
  for (std::size_t i = 0; i < keys.size(); ++i) v.emplace_back(keys[i], i);
  return v;
}

/// The reference order: std::stable_sort by key.
template <typename K, typename V>
std::vector<std::pair<K, V>> stable_by_key(std::vector<std::pair<K, V>> v) {
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return v;
}

template <typename K>
std::vector<K> random_keys(Rng& rng, std::size_t n, std::uint64_t below) {
  std::vector<K> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<K>(rng.next_below(below)));
  }
  return keys;
}

TEST(SortByKey, MatchesStableSortByKey) {
  Rng rng(11);
  // Keys that differ only in their top bits: of three 9-bit passes the two
  // low ones are skipped, so the result comes back from the scratch buffer.
  auto top_byte = random_keys<std::uint32_t>(rng, 2000, 4);
  for (auto& k : top_byte) k = (k << 24) | 0x00abcdefu;
  const std::vector<std::vector<std::uint32_t>> u32_cases = {
      {},
      {7},
      {3, 1, 2, 1, 3, 0, 3},
      std::vector<std::uint32_t>(1000, 42),       // all keys equal
      random_keys<std::uint32_t>(rng, 5000, 16),  // heavy duplicates
      random_keys<std::uint32_t>(rng, 5000, 1ull << 32),
      top_byte,
  };
  for (std::size_t c = 0; c < u32_cases.size(); ++c) {
    auto v = tagged(u32_cases[c]);
    const auto want = stable_by_key(v);
    sort_by_key(v);
    EXPECT_EQ(v, want) << "u32 case " << c;
  }
  // u64 keys with the high bit set, mixed with small ones.
  auto wide = random_keys<std::uint64_t>(rng, 4000, 1ull << 20);
  for (std::size_t i = 0; i < wide.size(); i += 3) wide[i] |= 1ull << 63;
  wide.push_back(~0ull);
  wide.push_back(0);
  auto v64 = tagged(wide);
  const auto want64 = stable_by_key(v64);
  sort_by_key(v64);
  EXPECT_EQ(v64, want64);
}


TEST(SortByKey, KeyWidthsStraddlingEveryPassBoundary) {
  // 11 bits take one pass, 12–22 two, 23–33 three, 64 six.
  EXPECT_EQ(radix_passes(0), 0u);
  EXPECT_EQ(radix_passes(1), 1u);
  EXPECT_EQ(radix_passes(11), 1u);
  EXPECT_EQ(radix_passes(12), 2u);
  EXPECT_EQ(radix_passes(18), 2u);
  EXPECT_EQ(radix_passes(22), 2u);
  EXPECT_EQ(radix_passes(23), 3u);
  EXPECT_EQ(radix_passes(33), 3u);
  EXPECT_EQ(radix_passes(64), 6u);
  Rng rng(5);
  for (const unsigned width : {1u, 8u, 11u, 12u, 22u, 23u, 33u, 64u}) {
    const std::uint64_t top = std::uint64_t{1} << (width - 1);
    for (const std::size_t n : {2u, 3u, 100u, 3000u}) {
      // Keys below 2^width with the top bit set in one of them, so the
      // OR of the keys is exactly `width` bits wide; half the keys repeat.
      std::vector<std::uint64_t> keys;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t k = rng.next_u64() & (top | (top - 1));
        if (i > 0 && rng.next_bool(0.5)) k = keys[rng.next_below(i)];
        keys.push_back(k);
      }
      keys[rng.next_below(n)] |= top;
      auto v = tagged(keys);
      const auto want = stable_by_key(v);
      sort_by_key(v);
      EXPECT_EQ(v, want) << "width " << width << " n " << n;
      // The same keys as u32 where they fit, and with an u8 payload.
      if (width <= 32) {
        std::vector<std::pair<std::uint32_t, std::uint8_t>> narrow;
        for (std::size_t i = 0; i < n; ++i) {
          narrow.emplace_back(static_cast<std::uint32_t>(keys[i]),
                              static_cast<std::uint8_t>(i));
        }
        const auto want_narrow = stable_by_key(narrow);
        sort_by_key(narrow);
        EXPECT_EQ(narrow, want_narrow) << "u32 width " << width << " n " << n;
      }
    }
  }
}

TEST(SortByKey, NonNegativeDoubleKeysOrderAsStableSortOnRanks) {
  const double sub = std::numeric_limits<double>::denorm_min();
  const std::vector<double> special = {
      0.0,   -0.0, sub,     2 * sub, DBL_MIN / 2, DBL_MIN,
      1e-300, 0.5, std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
      std::nextafter(1.0, 0.0), 0.25, 1e-17};
  Rng rng(9);
  std::vector<double> ranks;
  for (int i = 0; i < 2000; ++i) {
    // Special values, repeated (−0.0 and +0.0 tie), and uniform ranks.
    ranks.push_back(rng.next_bool(0.5)
                        ? special[rng.next_below(special.size())]
                        : static_cast<double>(rng.next_below(1u << 30)) /
                              static_cast<double>(1u << 30));
  }
  std::vector<std::pair<double, std::uint64_t>> by_rank;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_key;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    by_rank.emplace_back(ranks[i], i);
    by_key.emplace_back(nonnegative_double_key(ranks[i]), i);
  }
  std::stable_sort(by_rank.begin(), by_rank.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sort_by_key(by_key);
  ASSERT_EQ(by_key.size(), by_rank.size());
  for (std::size_t i = 0; i < by_key.size(); ++i) {
    ASSERT_EQ(by_key[i].second, by_rank[i].second) << "at " << i;
  }
  EXPECT_EQ(nonnegative_double_key(-0.0), nonnegative_double_key(0.0));
  EXPECT_LT(nonnegative_double_key(0.0), nonnegative_double_key(sub));
  EXPECT_LT(nonnegative_double_key(std::nextafter(1.0, 0.0)),
            nonnegative_double_key(1.0));
}

/// Merges `runs` (each sorted first) and checks the emitted sequence against
/// the stable sort of their concatenation.
template <typename K>
void expect_merge_matches(
    std::vector<std::vector<std::pair<K, std::uint64_t>>> runs,
    const std::string& what) {
  std::vector<std::pair<K, std::uint64_t>> concat;
  for (auto& run : runs) {
    run = stable_by_key(run);
    for (auto& kv : run) kv.second = concat.size();
    concat.insert(concat.end(), run.begin(), run.end());
  }
  std::vector<std::pair<K, std::uint64_t>> out;
  const std::vector<std::span<const std::pair<K, std::uint64_t>>> spans(
      runs.begin(), runs.end());
  merge_by_key(spans, [&](const auto& kv) { out.push_back(kv); });
  EXPECT_EQ(out, stable_by_key(concat)) << what;
}

TEST(MergeByKey, MatchesStableSortOfConcatenatedRuns) {
  Rng rng(23);
  using Run32 = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  expect_merge_matches<std::uint32_t>({}, "no runs");
  expect_merge_matches<std::uint32_t>({Run32{}, Run32{}}, "only empty runs");
  expect_merge_matches<std::uint32_t>(
      {tagged(random_keys<std::uint32_t>(rng, 300, 50))}, "single run");
  for (const std::size_t k : {2u, 3u, 7u, 33u}) {
    std::vector<Run32> runs;
    for (std::size_t r = 0; r < k; ++r) {
      // Every third run is empty; keys repeat within and across runs.
      const std::size_t len = r % 3 == 1 ? 0 : rng.next_below(400);
      runs.push_back(tagged(random_keys<std::uint32_t>(rng, len, 64)));
    }
    expect_merge_matches<std::uint32_t>(runs, std::to_string(k) + " runs");
  }
  // Two non-empty runs: ties, either run running out first and disjoint
  // ranges in both orders.
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t below = 1 + rng.next_below(trial % 2 ? 8 : 500);
    expect_merge_matches<std::uint32_t>(
        {tagged(random_keys<std::uint32_t>(rng, rng.next_below(300), below)),
         tagged(random_keys<std::uint32_t>(rng, rng.next_below(300), below))},
        "two runs, trial " + std::to_string(trial));
  }
  const Run32 low = tagged(std::vector<std::uint32_t>{1, 2, 3});
  const Run32 high = tagged(std::vector<std::uint32_t>{7, 8});
  expect_merge_matches<std::uint32_t>({low, high}, "disjoint, low first");
  expect_merge_matches<std::uint32_t>({high, low}, "disjoint, high first");
  std::vector<Run32> equal;
  for (int r = 0; r < 5; ++r) {
    equal.push_back(tagged(std::vector<std::uint32_t>(50 + r, 7)));
  }
  expect_merge_matches<std::uint32_t>(equal, "all keys equal");
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> wide;
  for (int r = 0; r < 6; ++r) {
    auto keys = random_keys<std::uint64_t>(rng, 200, 1000);
    for (std::size_t i = r; i < keys.size(); i += 2) keys[i] |= 1ull << 63;
    wide.push_back(tagged(keys));
  }
  expect_merge_matches<std::uint64_t>(wide, "u64 keys with the high bit set");
}

}  // namespace
}  // namespace simprof::support
