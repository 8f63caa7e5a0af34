#include "support/zipf.h"

#include <bit>
#include <cmath>

#include "support/assert.h"

namespace simprof {

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  SIMPROF_EXPECTS(n > 0, "Zipf vocabulary must be non-empty");
  SIMPROF_EXPECTS(n <= (std::size_t{1} << 32),
                  "Zipf vocabulary must fit 32-bit guide entries");
  SIMPROF_EXPECTS(s >= 0.0, "Zipf exponent must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s_);
    cdf_[k] = acc;
  }
  norm_ = acc;
  for (auto& v : cdf_) v /= norm_;
  cdf_.back() = 1.0;  // guard against floating-point shortfall

  // One linear sweep: bucket edges j/m are exact doubles (m ≤ 2³²), and
  // cdf_.back() == 1.0 stops the scan at the last edge.
  const std::size_t m = std::bit_ceil(n);
  bucket_scale_ = static_cast<double>(m);
  guide_.resize(m + 1);
  std::size_t k = 0;
  for (std::size_t j = 0; j <= m; ++j) {
    const double edge = static_cast<double>(j) / bucket_scale_;
    while (cdf_[k] < edge) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

double ZipfSampler::probability(std::size_t rank) const {
  SIMPROF_EXPECTS(rank < cdf_.size(), "rank out of range");
  return 1.0 / std::pow(static_cast<double>(rank + 1), s_) / norm_;
}

}  // namespace simprof
