// Zipf-distributed sampling for the text-corpus synthesizer.
//
// BigDataBench's text generator draws words from a power-law vocabulary; the
// skew exponent controls how "heavy" the hot words are, which in turn drives
// the combiner hit-rate and hash-map sizes in WordCount/Grep/NaiveBayes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.h"

namespace simprof {

/// Samples ranks in [0, n) with P(rank k) ∝ 1/(k+1)^s using an inverted-CDF
/// table built once at construction. A guide table (indexed search) narrows
/// each draw's binary search to the CDF entries of one of m ≥ n equal-width
/// buckets of [0, 1), so a draw costs O(1) expected time; the rank returned
/// is exactly the first CDF entry ≥ u, as a full binary search would give.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t size() const { return cdf_.size(); }
  double exponent() const { return s_; }

  /// Draw one rank; rank 0 is the most frequent item.
  std::size_t sample(Rng& rng) const { return rank_at(rng.next_double()); }

  /// The rank a draw of u ∈ [0, 1) maps to: the first k with cdf()[k] ≥ u.
  std::size_t rank_at(double u) const {
    // The CDF is monotone, hence the first entry ≥ u lies in
    // [guide_[j], guide_[j+1]] for u's bucket j.
    const std::size_t j = bucket(u);
    const double* first = cdf_.data() + guide_[j];
    const double* last = cdf_.data() + guide_[j + 1];
    return static_cast<std::size_t>(std::lower_bound(first, last, u) -
                                    cdf_.data());
  }

  /// Cache hints for a later rank_at(u), for callers that know their draws
  /// ahead of time: first the guide entry of u's bucket, then (once that
  /// entry is cached) the first CDF entry the search reads.
  void prefetch_guide(double u) const {
    __builtin_prefetch(guide_.data() + bucket(u));
  }
  void prefetch_cdf(double u) const {
    __builtin_prefetch(cdf_.data() + guide_[bucket(u)]);
  }

  /// Expected probability of a given rank (for tests).
  double probability(std::size_t rank) const;

  /// The cumulative distribution: cdf()[k] = P(rank ≤ k), cdf().back() = 1.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  /// m is a power of two, so u·m is exact and its floor is the bucket j
  /// with j/m ≤ u < (j+1)/m, j < m.
  std::size_t bucket(double u) const {
    return static_cast<std::size_t>(u * bucket_scale_);
  }

  double s_ = 1.0;
  double norm_ = 1.0;
  double bucket_scale_ = 1.0;  ///< m, the bucket count (a power of two ≥ n)
  std::vector<double> cdf_;
  /// guide_[j] = first k with cdf_[k] ≥ j/m, for j in [0, m].
  std::vector<std::uint32_t> guide_;
};

}  // namespace simprof
