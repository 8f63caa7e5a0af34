// Descriptive statistics used throughout SimProf: per-phase CPI means and
// deviations (Eq. 5), coefficients of variation (Fig. 6), and the weighted
// CoV summary of the phase-homogeneity analysis.
//
// Small-sample conventions (DESIGN.md §6d): every estimator is total on its
// domain — n < 2 yields variance/stddev/correlation 0 rather than a 0/0 NaN,
// so single-unit phases flow through Neyman weights and CIs as "no variance
// signal" instead of poisoning them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace simprof::stats {

double mean(std::span<const double> xs);

/// Sample variance (n-1 denominator), 0 when fewer than 2 samples.
double sample_variance(std::span<const double> xs);

/// Population variance (n denominator).
double population_variance(std::span<const double> xs);

/// Sample standard deviation — the paper's s_h (Eq. 5).
double sample_stddev(std::span<const double> xs);

/// Coefficient of variation: stddev/mean (sample stddev); 0 if mean is 0.
double coefficient_of_variation(std::span<const double> xs);

/// Min / max helpers (0 on empty input).
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Summary of a partition of observations into groups (phases): the paper's
/// population / weighted / maximum CoV triple of Fig. 6.
struct CovSummary {
  double population = 0.0;  ///< CoV over all observations.
  double weighted = 0.0;    ///< Σ (N_h/N) · CoV_h.
  double maximum = 0.0;     ///< max_h CoV_h.
};

/// `labels[i]` assigns observation i to a group in [0, num_groups).
CovSummary grouped_cov(std::span<const double> values,
                       std::span<const std::size_t> labels,
                       std::size_t num_groups);

/// Pearson correlation coefficient; 0 when either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Incremental moment accumulator (Welford's online algorithm) — the
/// streaming sibling of mean/sample_variance above, for statistics over
/// observations that are not retained.
///
/// Small-sample conventions match the batch estimators: count < 2 yields
/// variance/stddev 0, an empty accumulator reports mean/min/max 0. merge()
/// folds another accumulator in with Chan's parallel update; a fixed fold
/// order yields a deterministic (though not bitwise batch-identical) result.
class RunningMoments {
 public:
  void push(double x);
  void merge(const RunningMoments& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator), 0 when fewer than 2 observations.
  double sample_variance() const;
  double sample_stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace simprof::stats
