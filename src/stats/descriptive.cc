#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"

namespace simprof::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double sample_variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double population_variance(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double sample_stddev(std::span<const double> xs) {
  return std::sqrt(sample_variance(xs));
}

double coefficient_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return sample_stddev(xs) / m;
}

double min_value(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

CovSummary grouped_cov(std::span<const double> values,
                       std::span<const std::size_t> labels,
                       std::size_t num_groups) {
  SIMPROF_EXPECTS(values.size() == labels.size(),
                  "values/labels length mismatch");
  CovSummary out;
  out.population = coefficient_of_variation(values);
  if (num_groups == 0 || values.empty()) return out;

  std::vector<std::vector<double>> groups(num_groups);
  for (std::size_t i = 0; i < values.size(); ++i) {
    SIMPROF_EXPECTS(labels[i] < num_groups, "label out of range");
    groups[labels[i]].push_back(values[i]);
  }
  const double n = static_cast<double>(values.size());
  for (const auto& g : groups) {
    if (g.empty()) continue;
    const double cov = coefficient_of_variation(g);
    out.weighted += cov * static_cast<double>(g.size()) / n;
    out.maximum = std::max(out.maximum, cov);
  }
  return out;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  SIMPROF_EXPECTS(xs.size() == ys.size(), "length mismatch");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void RunningMoments::push(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningMoments::merge(const RunningMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningMoments::sample_variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningMoments::sample_stddev() const {
  return std::sqrt(sample_variance());
}

}  // namespace simprof::stats
