// FlatCombiner: the per-task key → value fold behind Spark's combiners
// (Aggregator.combineValuesByKey / combineCombinersByKey) and GraphX's
// aggregateMessages.
//
// Records fold into an open-addressing table (linear probing, Fibonacci
// hashing) whose entries sit densely in first-seen order, so a record costs
// one probe and no allocation, and size() is the number of distinct keys so
// far.
//
// Spark's shuffles emit a combiner's entries in the iteration order of the
// std::unordered_map they once folded into; record order, every simulated
// probe region sized from size() and so every profile byte downstream depend
// on it. drain() computes that order instead of building the map. (GraphX
// reads no entry order and takes the entries in first-seen order, take().)
// libstdc++'s node order is a function of the map's reserve and of the
// sequence of new-key insertions only (inserting an existing key finds it
// without rehashing or relinking anything), and it has a closed form
// (DESIGN.md §6l):
//   * a new key whose bucket is empty goes to the head of the node list;
//   * a new key whose bucket is occupied goes to the front of that bucket's
//     run of nodes;
//   * a rehash re-inserts the whole list, in list order, by the same rules.
// So between two rehashes the list is the inserted sequence grouped by
// bucket, the buckets in reverse order of their first node and each
// bucket's nodes newest first: one counting pass per rehash. The bucket
// counts come from libstdc++'s own _Prime_rehash_policy, called as
// unordered_map::reserve and _Hashtable::_M_insert_unique_node call it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "support/assert.h"

#ifndef __GLIBCXX__
#error "FlatCombiner::drain reproduces libstdc++'s std::unordered_map order"
#endif

namespace simprof::spark {

namespace detail {

/// A stretch of new-key insertions that a std::unordered_map makes with one
/// bucket count: insertions [first, the next epoch's first) see `buckets`
/// buckets. A rehash starts an epoch, which may hold no insertion.
struct BucketEpoch {
  std::size_t first = 0;
  std::size_t buckets = 0;
  friend bool operator==(const BucketEpoch&, const BucketEpoch&) = default;
};

/// The bucket counts of a default-constructed std::unordered_map that is
/// reserved to `reserve` (or not reserved) and then given `inserts` new keys
/// one at a time. The first epoch starts at insertion 0 with the bucket
/// count after the reserve; each rehash adds one.
inline std::vector<BucketEpoch> bucket_epochs(std::optional<std::size_t> reserve,
                                              std::size_t inserts) {
  std::__detail::_Prime_rehash_policy policy;
  std::size_t buckets = 1;  // a default-constructed map's single bucket
  if (reserve) {
    // reserve(n) is rehash(_M_bkt_for_elements(n)) on an empty map.
    const auto saved = policy._M_state();
    const std::size_t want = policy._M_next_bkt(std::max(
        policy._M_bkt_for_elements(1), policy._M_bkt_for_elements(*reserve)));
    if (want != buckets) {
      buckets = want;
    } else {
      policy._M_reset(saved);
    }
  }
  std::vector<BucketEpoch> epochs{{0, buckets}};
  for (std::size_t i = 0; i < inserts; ++i) {
    // _M_need_rehash returns at once, changing nothing, while the element
    // count after the insertion stays within _M_next_resize; skip those.
    i = std::max(i, policy._M_next_resize);
    if (i >= inserts) break;
    const auto [rehash, next] = policy._M_need_rehash(buckets, i, 1);
    if (rehash) {
      buckets = next;
      epochs.push_back({i, buckets});
    }
  }
  return epochs;
}

/// The iteration order of a std::unordered_map<K, ·> reserved as
/// bucket_epochs() describes and then given the distinct `keys` one emplace
/// at a time, as positions into `keys`.
template <typename K>
std::vector<std::uint32_t> node_order(std::span<const K> keys,
                                      std::optional<std::size_t> reserve) {
  const std::size_t n = keys.size();
  SIMPROF_EXPECTS(n < 0xffffffffu, "combiner index overflow");
  const std::vector<BucketEpoch> epochs = bucket_epochs(reserve, n);
  // The node list: each node's position in `keys` and its key, so a pass
  // reads both sequentially.
  std::vector<std::uint32_t> order, next_order;
  std::vector<K> order_keys, next_keys;
  std::vector<std::uint32_t> bucket_of, start, opened;
  order.reserve(n);
  order_keys.reserve(n);
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const std::size_t end = e + 1 < epochs.size() ? epochs[e + 1].first : n;
    for (std::size_t i = epochs[e].first; i < end; ++i) {
      order.push_back(static_cast<std::uint32_t>(i));
      order_keys.push_back(keys[i]);
    }
    const std::size_t m = order.size();
    if (m == 0) continue;
    // The list the rehash that opened this epoch built, followed by the
    // epoch's insertions, relinked by the insertion rules.
    const std::size_t buckets = epochs[e].buckets;
    SIMPROF_ASSERT(buckets <= 0xffffffffu, "bucket count overflow");
    start.assign(buckets, 0);
    opened.clear();
    bucket_of.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t hash = std::hash<K>{}(order_keys[i]);
      const auto b = static_cast<std::uint32_t>(
          hash <= 0xffffffffu ? static_cast<std::uint32_t>(hash) %
                                    static_cast<std::uint32_t>(buckets)
                              : hash % buckets);
      bucket_of[i] = b;
      if (start[b]++ == 0) opened.push_back(b);
    }
    // Buckets opened later sit nearer the head.
    std::uint32_t at = 0;
    for (auto it = opened.rbegin(); it != opened.rend(); ++it) {
      at += std::exchange(start[*it], at);
    }
    // Within a bucket the newest node comes first.
    next_order.resize(m);
    next_keys.resize(m);
    for (std::size_t i = m; i-- > 0;) {
      const std::uint32_t to = start[bucket_of[i]]++;
      next_order[to] = order[i];
      next_keys[to] = order_keys[i];
    }
    order.swap(next_order);
    order_keys.swap(next_keys);
  }
  return order;
}

}  // namespace detail

template <typename K, typename V>
class FlatCombiner {
  static_assert(std::is_integral_v<K>, "combiner keys are integral");

 public:
  /// `map_reserve` is the reserve of the std::unordered_map whose order
  /// drain() reproduces: the reserve the record-by-record map had, or none.
  explicit FlatCombiner(std::optional<std::size_t> map_reserve = std::nullopt)
      : map_reserve_(map_reserve) {
    reset_table();
  }

  /// Fold one record: a new key stores `value`, a known key's value v
  /// becomes fold(v, value).
  template <typename Fold>
  void add(const K& key, const V& value, Fold&& fold) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    for (; slots_[i].index != 0; i = (i + 1) & mask) {
      if (slots_[i].key == key) {
        V& current = entries_[slots_[i].index - 1].second;
        current = fold(current, value);
        return;
      }
    }
    SIMPROF_ASSERT(entries_.size() < kMaxEntries, "combiner index overflow");
    entries_.emplace_back(key, value);
    slots_[i] = Slot{key, static_cast<std::uint32_t>(entries_.size())};
  }

  /// Distinct keys folded so far.
  std::size_t size() const { return entries_.size(); }

  /// Every entry, in the iteration order of a std::unordered_map<K, V> given
  /// `map_reserve` and then built by emplacing the same records. Leaves the
  /// combiner empty.
  std::vector<std::pair<K, V>> drain() {
    obs::ObsSpan span("spark.combiner_drain", {{"keys", entries_.size()}});
    std::vector<K> keys(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      keys[i] = entries_[i].first;
    }
    std::vector<std::pair<K, V>> out;
    out.reserve(entries_.size());
    for (const std::uint32_t i :
         detail::node_order<K>(keys, map_reserve_)) {
      out.push_back(std::move(entries_[i]));
    }
    entries_.clear();
    reset_table();
    return out;
  }

  /// Every entry, in first-seen order. Leaves the combiner empty.
  std::vector<std::pair<K, V>> take() {
    std::vector<std::pair<K, V>> out = std::move(entries_);
    entries_.clear();
    reset_table();
    return out;
  }

 private:
  /// `index` is the entry's position + 1; 0 marks an empty slot.
  struct Slot {
    K key{};
    std::uint32_t index = 0;
  };
  static constexpr std::size_t kInitialSlots = 16;
  static constexpr std::size_t kMaxEntries = 0xffffffffu;
  /// Fibonacci hashing: the top bits of key·2⁶⁴/φ index the table.
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  std::size_t home(const K& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * kGolden) >> shift_);
  }

  void reset_table() {
    slots_.assign(kInitialSlots, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(kInitialSlots));
  }

  void grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    --shift_;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t i = home(entries_[e].first);
      while (slots_[i].index != 0) i = (i + 1) & mask;
      slots_[i] = Slot{entries_[e].first, static_cast<std::uint32_t>(e + 1)};
    }
  }

  std::optional<std::size_t> map_reserve_;
  std::vector<Slot> slots_;  ///< power-of-two capacity, at most half full
  unsigned shift_ = 0;       ///< 64 − log2(slots_.size()), for hashing
  std::vector<std::pair<K, V>> entries_;  ///< first-seen order
};

}  // namespace simprof::spark
