// Key-ordered kernels for MiniHadoop's sort and merge paths.
//
// A mapper sorts every spill buffer by key, then merges its sorted spills; a
// reducer merges the sorted segments it fetched. Both must produce exactly
// the order of std::stable_sort by key over the concatenated input —
// combiners and reducers fold equal-key values in that order, and floating-
// point folds (PageRank contributions) are order-sensitive. These kernels
// keep that order while avoiding a comparison sort:
//   * sort_by_key is an LSD radix sort (stable by construction) for
//     unsigned integral keys, falling back to std::stable_sort otherwise;
//   * merge_by_key streams the merge of already-sorted runs through a
//     min-heap of run cursors, equal keys going to the earlier run, so the
//     merged run never has to be stored.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace simprof::hadoop {

/// Stable sort of `v` by `first`: the same order as std::stable_sort with
/// `a.first < b.first`.
template <typename K, typename V>
void sort_by_key(std::vector<std::pair<K, V>>& v) {
  using Pair = std::pair<K, V>;
  if constexpr (std::is_integral_v<K> && std::is_unsigned_v<K>) {
    constexpr std::size_t kDigits = sizeof(K);  // one byte per pass
    const std::size_t n = v.size();
    if (n < 2) return;
    std::array<std::array<std::size_t, 256>, kDigits> count{};
    for (const Pair& p : v) {
      K key = p.first;
      for (std::size_t d = 0; d < kDigits; ++d, key >>= 8) {
        ++count[d][static_cast<std::uint8_t>(key)];
      }
    }
    std::vector<Pair> scratch(n);
    Pair* src = v.data();
    Pair* dst = scratch.data();
    for (std::size_t d = 0; d < kDigits; ++d) {
      const unsigned shift = static_cast<unsigned>(8 * d);
      auto& c = count[d];
      // A byte every key shares leaves the order as it is.
      if (c[static_cast<std::uint8_t>(src[0].first >> shift)] == n) continue;
      std::size_t offset = 0;
      for (std::size_t& slot : c) offset += std::exchange(slot, offset);
      for (std::size_t i = 0; i < n; ++i) {
        dst[c[static_cast<std::uint8_t>(src[i].first >> shift)]++] =
            std::move(src[i]);
      }
      std::swap(src, dst);
    }
    if (src != v.data()) std::move(src, src + n, v.data());
  } else {
    std::stable_sort(v.begin(), v.end(), [](const Pair& a, const Pair& b) {
      return a.first < b.first;
    });
  }
}

/// Calls `emit(pair)` for every pair of `runs` — each sorted by `first` — in
/// their stable merge order: the order of concatenating the runs and
/// stable-sorting the result by key. Streaming the merge lets callers fold
/// or partition it without materialising it.
template <typename K, typename V, typename Emit>
void merge_by_key(const std::vector<std::span<const std::pair<K, V>>>& runs,
                  Emit&& emit) {
  using Pair = std::pair<K, V>;
  struct Cursor {
    K key;  ///< *it's key, cached so comparisons stay off the runs
    const Pair* it;
    const Pair* end;
    std::size_t run;
  };
  // Strict total order on cursors: by head key, then by run index.
  const auto before = [](const Cursor& a, const Cursor& b) {
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    return a.run < b.run;
  };
  std::vector<Cursor> heap;
  heap.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) {
      const Pair* it = runs[r].data();
      heap.push_back(Cursor{it->first, it, it + runs[r].size(), r});
    }
  }
  // std::make_heap keeps the "largest" on top; invert to get a min-heap.
  std::make_heap(heap.begin(), heap.end(),
                 [&](const Cursor& a, const Cursor& b) { return before(b, a); });
  while (heap.size() > 1) {
    Cursor top = heap.front();
    emit(*top.it);
    if (++top.it == top.end) {
      top = heap.back();
      heap.pop_back();
    } else {
      top.key = top.it->first;
    }
    // Sift the (advanced or replaced) head back down.
    const std::size_t n = heap.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && before(heap[child + 1], heap[child])) ++child;
      if (!before(heap[child], top)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = top;
  }
  if (heap.empty()) return;
  for (const Pair* it = heap.front().it; it != heap.front().end; ++it) {
    emit(*it);
  }
}

}  // namespace simprof::hadoop
