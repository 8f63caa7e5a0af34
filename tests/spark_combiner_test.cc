// Tests for FlatCombiner (minispark/combiner.h): a record stream folded
// through the combiner and drained must give exactly the entries, values
// and iteration order of a std::unordered_map built by emplace over the
// same stream with the same reserve. The engines emit records in that
// order, so every profile byte downstream depends on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
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

/// Folds `keys` (record i carries value i + 1) through a combiner and a
/// reference map, checks size() after every record, then the drained order.
template <typename K>
void expect_map_order(const std::vector<K>& keys,
                      std::optional<std::size_t> reserve) {
  std::unordered_map<K, std::uint64_t> reference;
  if (reserve) reference.reserve(*reserve);
  FlatCombiner<K, std::uint64_t> combiner(reserve);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto [it, fresh] = reference.emplace(keys[i], i + 1);
    if (!fresh) it->second = fold(it->second, i + 1);
    combiner.add(keys[i], i + 1, fold);
    ASSERT_EQ(combiner.size(), reference.size()) << "record " << i;
  }
  const std::vector<std::pair<K, std::uint64_t>> expected(reference.begin(),
                                                          reference.end());
  EXPECT_EQ(combiner.drain(), expected);
  EXPECT_EQ(combiner.size(), 0u);
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

}  // namespace
}  // namespace simprof::spark
