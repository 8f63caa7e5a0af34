// Tests for FlatCombiner (minispark/combiner.h): a record stream folded
// through the combiner and drained must give exactly the entries, values
// and iteration order of a std::unordered_map built by emplace over the
// same stream with the same reserve. The engines emit records in that
// order, so every profile byte downstream depends on it. The computed order
// is also checked against a live map's bucket counts and rehash points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "minispark/combiner.h"
#include "support/rng.h"

namespace simprof::spark {
namespace {

/// Non-commutative, so a key's value pins the order its records folded in.
std::uint64_t fold(const std::uint64_t& a, const std::uint64_t& b) {
  return a * 31 + b;
}

/// Folds `keys` (record i carries value make(i)) through a combiner and a
/// reference map, checks size() after every record, then the drained order.
template <typename K, typename V, typename Make, typename Fold>
void expect_map_order_of(const std::vector<K>& keys,
                         std::optional<std::size_t> reserve, Make make,
                         Fold fold) {
  std::unordered_map<K, V> reference;
  if (reserve) reference.reserve(*reserve);
  FlatCombiner<K, V> combiner(reserve);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto [it, fresh] = reference.emplace(keys[i], make(i));
    if (!fresh) it->second = fold(it->second, make(i));
    combiner.add(keys[i], make(i), fold);
    ASSERT_EQ(combiner.size(), reference.size()) << "record " << i;
  }
  const std::vector<std::pair<K, V>> expected(reference.begin(),
                                              reference.end());
  EXPECT_EQ(combiner.drain(), expected);
  EXPECT_EQ(combiner.size(), 0u);
}

template <typename K>
void expect_map_order(const std::vector<K>& keys,
                      std::optional<std::size_t> reserve) {
  expect_map_order_of<K, std::uint64_t>(
      keys, reserve, [](std::size_t i) { return std::uint64_t{i + 1}; }, fold);
}

/// `n` records over `distinct` keys drawn from `pool`, with heavy repeats:
/// half the records reuse one of the 16 hottest keys.
template <typename K>
std::vector<K> repeat_stream(std::size_t n, std::size_t distinct, Rng& rng,
                             K (*pool)(Rng&)) {
  std::vector<K> keys(distinct);
  for (K& k : keys) k = pool(rng);
  std::vector<K> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t hot = std::min<std::size_t>(distinct, 16);
    out.push_back(rng.next_bool(0.5) ? keys[rng.next_below(hot)]
                                     : keys[rng.next_below(distinct)]);
  }
  return out;
}

std::uint32_t u32_key(Rng& rng) {
  return static_cast<std::uint32_t>(rng.next_below(1u << 20));
}
std::uint64_t u64_high_key(Rng& rng) {
  return (std::uint64_t{1} << 63) | rng.next_u64();
}

template <typename K>
void check_grid(K (*pool)(Rng&)) {
  Rng rng(2024);
  // Distinct counts span libstdc++'s bucket primes from 13 to 10273 and the
  // combiner's own doublings from 16 to 32768 slots.
  for (const std::size_t distinct : {1, 7, 60, 600, 3000, 14000}) {
    for (const std::size_t per_key : {1, 3, 8}) {
      const std::size_t n = distinct * per_key;
      const std::vector<K> keys = repeat_stream(n, distinct, rng, pool);
      SCOPED_TRACE(::testing::Message() << "n=" << n << " distinct<="
                                        << distinct);
      expect_map_order(keys, std::nullopt);
      expect_map_order(keys, std::optional<std::size_t>(n / 4 + 16));
      expect_map_order(keys, std::optional<std::size_t>(n));
    }
  }
}

TEST(FlatCombiner, MatchesUnorderedMapOrderForU32Keys) {
  check_grid<std::uint32_t>(u32_key);
}

TEST(FlatCombiner, MatchesUnorderedMapOrderForU64KeysWithHighBitSet) {
  check_grid<std::uint64_t>(u64_high_key);
}

TEST(FlatCombiner, SequentialKeysMatchUnorderedMapOrder) {
  // Dense small ids, as vertex ids and word ids are: every key lands in its
  // own bucket of the reference map, and many share a combiner home slot
  // run.
  std::vector<std::uint32_t> keys;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t k = 0; k < 5000; ++k) keys.push_back((k * 7) % 5000);
  }
  expect_map_order(keys, std::nullopt);
  expect_map_order(keys, std::optional<std::size_t>(keys.size() / 4 + 16));
  expect_map_order(keys, std::optional<std::size_t>(keys.size()));
}

TEST(FlatCombiner, WordCountSizedStreamMatchesUnorderedMapOrder) {
  // wc_sp's map side: over 100K distinct words and the in.size()/4 + 16
  // reserve, which falls short of the distinct count and so rehashes.
  Rng rng(7);
  std::vector<std::uint32_t> vocabulary(140000);
  for (auto& w : vocabulary) w = static_cast<std::uint32_t>(rng.next_u64());
  std::vector<std::uint32_t> keys = vocabulary;
  for (std::size_t i = 0; i < 2 * vocabulary.size(); ++i) {
    keys.push_back(vocabulary[rng.next_below(rng.next_bool(0.5) ? 64 : 140000)]);
  }
  for (std::size_t i = keys.size(); i-- > 1;) {
    std::swap(keys[i], keys[rng.next_below(i + 1)]);
  }
  std::unordered_set<std::uint32_t> distinct(keys.begin(), keys.end());
  ASSERT_GE(distinct.size(), 100000u);
  expect_map_order(keys, std::optional<std::size_t>(keys.size() / 4 + 16));
  expect_map_order(keys, std::nullopt);
}

TEST(FlatCombiner, ReservesBelowTheDistinctCountRehashSeveralTimes) {
  Rng rng(12);
  const std::vector<std::uint32_t> keys =
      repeat_stream(20000, 6000, rng, u32_key);
  for (const std::size_t reserve : {0, 1, 5, 13, 100, 700, 2000}) {
    SCOPED_TRACE(::testing::Message() << "reserve " << reserve);
    // At most one rehash per doubling: the reserve leaves several.
    ASSERT_GE(detail::bucket_epochs(reserve, 6000).size(), 3u);
    expect_map_order(keys, std::optional<std::size_t>(reserve));
  }
}

TEST(FlatCombiner, VectorValuesMatchUnorderedMapOrder) {
  // Non-scalar values: the order depends only on the keys, whatever the
  // value type and fold (here vectors, folded by concatenation).
  Rng rng(31);
  const std::vector<std::uint32_t> keys = repeat_stream(6000, 1500, rng, u32_key);
  const auto make = [](std::size_t i) {
    return std::vector<std::uint64_t>{i, i * 3};
  };
  const auto concat = [](const std::vector<std::uint64_t>& a,
                         const std::vector<std::uint64_t>& b) {
    std::vector<std::uint64_t> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
  };
  for (const std::optional<std::size_t> reserve :
       {std::optional<std::size_t>(), std::optional<std::size_t>(100),
        std::optional<std::size_t>(6000)}) {
    expect_map_order_of<std::uint32_t, std::vector<std::uint64_t>>(
        keys, reserve, make, concat);
  }
}

/// Inserts `keys` (distinct) into a live std::unordered_map one at a time
/// and checks its bucket counts after the reserve and after every insertion,
/// and then its iteration order, against bucket_epochs() and node_order().
template <typename K>
void expect_live_map_matches(const std::vector<K>& keys,
                             std::optional<std::size_t> reserve) {
  std::unordered_map<K, std::uint32_t> live;
  if (reserve) live.reserve(*reserve);
  std::vector<detail::BucketEpoch> seen{{0, live.bucket_count()}};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t before = live.bucket_count();
    ASSERT_TRUE(live.emplace(keys[i], static_cast<std::uint32_t>(i)).second);
    if (live.bucket_count() != before) seen.push_back({i, live.bucket_count()});
  }
  const auto epochs = detail::bucket_epochs(reserve, keys.size());
  ASSERT_EQ(epochs.size(), seen.size());
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    EXPECT_EQ(epochs[e].first, seen[e].first) << "epoch " << e;
    EXPECT_EQ(epochs[e].buckets, seen[e].buckets) << "epoch " << e;
  }
  std::vector<std::uint32_t> live_order;
  for (const auto& [key, position] : live) live_order.push_back(position);
  EXPECT_EQ(detail::node_order<K>(keys, reserve), live_order);
}

TEST(FlatCombiner, ComputedBucketsAndOrderMatchALiveUnorderedMap) {
  // The combiner reproduces libstdc++'s std::unordered_map: this pins the
  // rehash policy's bucket counts, the rehash points and the node order of
  // the toolchain it is built with.
  Rng rng(41);
  std::vector<std::uint64_t> keys;
  std::unordered_set<std::uint64_t> used;
  while (keys.size() < 3000) {
    const std::uint64_t k = rng.next_bool(0.3) ? rng.next_u64()
                                               : rng.next_below(1u << 16);
    if (used.insert(k).second) keys.push_back(k);
  }
  expect_live_map_matches(keys, std::nullopt);
  for (std::size_t reserve = 0; reserve <= 64; ++reserve) {
    SCOPED_TRACE(::testing::Message() << "reserve " << reserve);
    expect_live_map_matches(keys, std::optional<std::size_t>(reserve));
  }
  std::vector<std::uint32_t> many(250000);
  for (std::uint32_t i = 0; i < many.size(); ++i) many[i] = i * 2654435761u;
  SCOPED_TRACE("reserve 100000");
  expect_live_map_matches(many, std::optional<std::size_t>(100000));
}

TEST(FlatCombiner, EmptyStreamDrainsNothing) {
  expect_map_order<std::uint32_t>({}, std::nullopt);
  expect_map_order<std::uint64_t>({}, std::optional<std::size_t>(0));
  expect_map_order<std::uint64_t>({}, std::optional<std::size_t>(16));
}

TEST(FlatCombiner, DrainLeavesAReusableEmptyCombiner) {
  FlatCombiner<std::uint32_t, std::uint64_t> combiner;
  for (std::uint32_t k = 0; k < 100; ++k) combiner.add(k % 10, k, fold);
  EXPECT_EQ(combiner.drain().size(), 10u);
  // A second stream starts from an empty table and an empty replay map.
  std::unordered_map<std::uint32_t, std::uint64_t> reference;
  for (std::uint32_t k = 0; k < 300; ++k) {
    auto [it, fresh] = reference.emplace(k % 40 + 1000, k);
    if (!fresh) it->second = fold(it->second, k);
    combiner.add(k % 40 + 1000, k, fold);
  }
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> expected(
      reference.begin(), reference.end());
  EXPECT_EQ(combiner.drain(), expected);
}

TEST(FlatCombiner, TakeReturnsFirstSeenOrderAndEmpties) {
  FlatCombiner<std::uint32_t, std::uint64_t> combiner;
  for (const std::uint32_t k : {7u, 3u, 7u, 900u, 3u, 7u}) {
    combiner.add(k, 1, fold);
  }
  using Entries = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  EXPECT_EQ(combiner.take(), (Entries{{7, 993}, {3, 32}, {900, 1}}));
  EXPECT_EQ(combiner.size(), 0u);
  combiner.add(3, 5, fold);
  EXPECT_EQ(combiner.take(), (Entries{{3, 5}}));
}

}  // namespace
}  // namespace simprof::spark
