// Key-ordered kernels shared by the engines' sort and merge paths.
//
// A MiniHadoop mapper sorts every spill buffer by key, then merges its
// sorted spills; a reducer merges the sorted segments it fetched; a
// MiniSpark sortByKey reducer sorts its partition by each key's rank. All
// of them must produce exactly the order of std::stable_sort by key over the
// concatenated input: combiners and reducers fold equal-key values in that
// order, and floating-point folds (PageRank contributions) are
// order-sensitive. These kernels keep that order without a comparison sort:
//   * radix_sort is an LSD radix sort (stable by construction) by an
//     unsigned key projection. It reads the key width off the OR of all
//     keys and splits it into the fewest digits of at most 11 bits, so
//     18-bit keys take two passes and 32-bit keys three; a digit every key
//     shares is skipped. sort_by_key sorts pairs by an unsigned `first`.
//   * merge_by_key streams the merge of already-sorted runs through a
//     min-heap of run cursors, equal keys going to the earlier run. The
//     merged run is never stored.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace simprof::support {

/// Most bits one radix pass sorts on: a 2048-entry histogram stays in L1.
inline constexpr unsigned kMaxRadixBits = 11;

/// Radix passes sort_by_key makes over keys of `width` significant bits,
/// before skipping the digits every key shares.
constexpr unsigned radix_passes(unsigned width) {
  return (width + kMaxRadixBits - 1) / kMaxRadixBits;
}

/// A radix key for a non-negative double that orders as the double does:
/// its IEEE bits, −0.0 folded to +0.0 (they compare equal). Non-negative
/// doubles, subnormals and +∞ included, order as their bit patterns.
inline std::uint64_t nonnegative_double_key(double x) {
  return std::bit_cast<std::uint64_t>(x + 0.0);
}

/// Stable LSD radix sort of `v` by `key(element)`, an unsigned integer: the
/// same order as std::stable_sort with `key(a) < key(b)`. `key` is called
/// once per element per pass, so it should be cheap; it may read keys kept
/// outside `v` (sorting positions by a key array needs half the memory of
/// sorting (key, position) pairs).
template <typename T, typename Key>
void radix_sort(std::vector<T>& v, Key key) {
  using U = std::invoke_result_t<Key&, const T&>;
  static_assert(std::is_unsigned_v<U>, "radix keys are unsigned integers");
  const std::size_t n = v.size();
  if (n < 2) return;
  U all = 0;
  for (const T& x : v) all |= key(x);
  const auto width = static_cast<unsigned>(std::bit_width(all));
  const unsigned passes = radix_passes(width);
  if (passes == 0) return;  // every key is zero
  const unsigned bits = (width + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << bits;
  const U mask = static_cast<U>(radix - 1);

  // One histogram per digit, each from its own sweep: a sweep that bumps
  // every digit's counter per element runs several times slower.
  std::vector<std::size_t> count(passes * radix, 0);
  for (unsigned d = 0; d < passes; ++d) {
    std::size_t* c = count.data() + d * radix;
    const unsigned shift = d * bits;
    for (const T& x : v) ++c[static_cast<std::size_t>((key(x) >> shift) & mask)];
  }
  std::vector<T> scratch(n);
  T* src = v.data();
  T* dst = scratch.data();
  for (unsigned d = 0; d < passes; ++d) {
    std::size_t* c = count.data() + d * radix;
    const unsigned shift = d * bits;
    const auto digit = [&](const T& x) {
      return static_cast<std::size_t>((key(x) >> shift) & mask);
    };
    // A digit every key shares leaves the order as it is.
    if (c[digit(src[0])] == n) continue;
    std::size_t offset = 0;
    for (std::size_t b = 0; b < radix; ++b) offset += std::exchange(c[b], offset);
    for (std::size_t i = 0; i < n; ++i) dst[c[digit(src[i])]++] = std::move(src[i]);
    std::swap(src, dst);
  }
  if (src != v.data()) std::move(src, src + n, v.data());
}

/// Stable sort of `v` by `first`, an unsigned integer: the same order as
/// std::stable_sort with `a.first < b.first`.
template <typename K, typename V>
void sort_by_key(std::vector<std::pair<K, V>>& v) {
  static_assert(std::is_unsigned_v<K>, "radix sort keys are unsigned");
  radix_sort(v, [](const std::pair<K, V>& p) { return p.first; });
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
  std::vector<Cursor> heap;
  heap.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) {
      const Pair* it = runs[r].data();
      heap.push_back(Cursor{it->first, it, it + runs[r].size(), r});
    }
  }
  // Strict total order on cursors: by head key, then by run index.
  const auto before = [](const Cursor& a, const Cursor& b) {
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    return a.run < b.run;
  };
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

}  // namespace simprof::support
