// FlatCombiner: the per-task key → value fold behind Spark's combiners
// (Aggregator.combineValuesByKey / combineCombinersByKey) and GraphX's
// aggregateMessages.
//
// Records fold into an open-addressing table (linear probing, Fibonacci
// hashing) whose entries sit densely in first-seen order, so a record costs
// one probe and no allocation, and size() is the number of distinct keys so
// far.
//
// The engines emit a combiner's entries in the iteration order of the
// std::unordered_map they once folded into; record order, every simulated
// probe region sized from size() and so every profile byte downstream depend
// on it. drain() reproduces that order exactly. libstdc++'s node order is a
// function of the map's reserve and of the sequence of new-key insertions
// only: inserting an existing key finds it without rehashing or relinking
// anything. So replaying the distinct keys, in first-seen order, into a map
// given the same reserve builds the same bucket array and node list as the
// record-by-record map did (DESIGN.md §6l).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/assert.h"

namespace simprof::spark {

template <typename K, typename V>
class FlatCombiner {
  static_assert(std::is_integral_v<K>, "combiner keys are integral");

 public:
  /// `map_reserve` is what the replay map of drain() is reserved to before
  /// its first insertion: the reserve the record-by-record map had, or none.
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
    std::unordered_map<K, std::uint32_t> order;
    if (map_reserve_) order.reserve(*map_reserve_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      order.emplace(entries_[i].first, static_cast<std::uint32_t>(i));
    }
    std::vector<std::pair<K, V>> out;
    out.reserve(entries_.size());
    for (const auto& [key, index] : order) {
      out.push_back(std::move(entries_[index]));
    }
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
