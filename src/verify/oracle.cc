#include "verify/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "obs/obs.h"
#include "stats/descriptive.h"
#include "stats/feature_select.h"
#include "stats/matrix.h"
#include "stats/silhouette.h"
#include "stats/two_phase.h"
#include "support/rng.h"

namespace simprof::verify {
namespace {

using stats::Stratum;

std::size_t sum_of(std::span<const std::size_t> v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

/// Naive O(n²) mean-silhouette reference: textbook definition computed with
/// none of the production code's grouping/blocking/threading machinery, so a
/// shared bug is implausible. Singletons score 0 (sklearn convention).
double reference_exact_silhouette(const stats::Matrix& pts,
                                  std::span<const std::size_t> labels,
                                  std::size_t k) {
  const std::size_t n = pts.rows();
  std::vector<std::size_t> counts(k, 0);
  for (auto l : labels) ++counts[l];
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (counts[labels[i]] <= 1) continue;
    std::vector<double> mean_dist(k, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double d2 = 0.0;
      for (std::size_t c = 0; c < pts.cols(); ++c) {
        const double d = pts.at(i, c) - pts.at(j, c);
        d2 += d * d;
      }
      mean_dist[labels[j]] += std::sqrt(d2);
    }
    const double a =
        mean_dist[labels[i]] / static_cast<double>(counts[labels[i]] - 1);
    double b = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < k; ++c) {
      if (c == labels[i] || counts[c] == 0) continue;
      b = std::min(b, mean_dist[c] / static_cast<double>(counts[c]));
    }
    const double denom = std::max(a, b);
    acc += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return acc / static_cast<double>(n);
}

}  // namespace

VerifyReport verify_statistics(const OracleConfig& cfg) {
  static obs::Counter& oracle_failures =
      obs::metrics().counter("verify.oracle_failures");
  const AllocationFn alloc_fn =
      cfg.allocation
          ? cfg.allocation
          : [](std::span<const Stratum> s, std::size_t n, std::size_t f) {
              return stats::optimal_allocation(s, n, f);
            };

  VerifyReport report;
  report.fingerprint = kFnvOffset;

  // --- Closed-form Neyman allocation (Eq. 1): N_h·σ_h of 100 and 300 split
  // n = 40 exactly 1:3.
  {
    const std::vector<Stratum> strata{{100, 1.0, 1.0}, {100, 3.0, 1.0}};
    const auto a = alloc_fn(strata, 40, 1);
    report.add("oracle.neyman_closed_form",
               a.size() == 2 && a[0] == 10 && a[1] == 30,
               "expected {10, 30}");
  }

  // --- Allocation property sweep on random strata, including non-finite σ
  // and totals beyond the population.
  {
    std::size_t bad = 0;
    std::string first;
    for (std::size_t t = 0; t < cfg.property_trials; ++t) {
      Rng rng = Rng::stream(cfg.seed, 0xA110 + t);
      const std::size_t h = 1 + rng.next_below(7);
      std::vector<Stratum> strata;
      std::size_t pop_total = 0;
      std::size_t non_empty = 0;
      for (std::size_t i = 0; i < h; ++i) {
        Stratum s;
        s.population = rng.next_below(220);  // 0 allowed
        s.stddev = rng.next_double(0.0, 2.0);
        if (rng.next_bool(0.1)) s.stddev = std::nan("");
        if (rng.next_bool(0.05)) {
          s.stddev = std::numeric_limits<double>::infinity();
        }
        s.mean = rng.next_double(0.5, 2.0);
        pop_total += s.population;
        non_empty += s.population > 0 ? 1 : 0;
        strata.push_back(s);
      }
      for (const std::size_t total :
           {std::size_t{0}, std::size_t{1}, pop_total / 2, pop_total,
            pop_total + 37}) {
        const auto a = alloc_fn(strata, total, 1);
        // Documented floor behavior: every non-empty stratum keeps ≥ 1 slot
        // even when the request is smaller, so the realized total is
        // max(min(total, population), #non-empty).
        const std::size_t expect =
            std::max(std::min(total, pop_total), non_empty);
        bool ok = a.size() == strata.size() && sum_of(a) == expect;
        for (std::size_t i = 0; ok && i < strata.size(); ++i) {
          ok = a[i] <= strata[i].population;
        }
        const auto se = stats::stratified_standard_error(strata, a);
        ok = ok && std::isfinite(se) && se >= 0.0;
        if (!ok && first.empty()) {
          std::ostringstream o;
          o << "trial " << t << " total " << total << " sum " << sum_of(a)
            << " expect " << expect;
          first = o.str();
        }
        bad += ok ? 0 : 1;
        report.fingerprint = fnv1a(report.fingerprint, sum_of(a));
        ++report.cases_run;
      }
    }
    report.add("oracle.allocation_properties", bad == 0,
               bad == 0 ? std::to_string(cfg.property_trials * 5) + " cases"
                        : std::to_string(bad) + " violations; first: " + first);
  }

  // --- Stratified SE against the hand-expanded Eq. 4 on a fixture.
  {
    const std::vector<Stratum> strata{{60, 2.0, 1.0}, {40, 1.0, 1.0}};
    const std::vector<std::size_t> n{6, 4};
    const double term0 = 60.0 * 60.0 * (1.0 - 6.0 / 60.0) * 4.0 / 6.0;
    const double term1 = 40.0 * 40.0 * (1.0 - 4.0 / 40.0) * 1.0 / 4.0;
    const double expected = std::sqrt(term0 + term1) / 100.0;
    const double got = stats::stratified_standard_error(strata, n);
    report.add("oracle.se_closed_form", std::abs(got - expected) < 1e-12);
  }

  // --- CI margin is exactly z·SE and single-unit strata stay finite.
  {
    const auto ci = stats::confidence_interval(1.25, 0.02, stats::kZ997);
    const std::vector<Stratum> single{{1, 0.0, 1.0}, {500, 0.4, 1.1}};
    const auto a = alloc_fn(single, 10, 1);
    const double se = stats::stratified_standard_error(single, a);
    const auto ci1 = stats::confidence_interval(1.1, se, stats::kZ997);
    report.add("oracle.ci_margin_closed_form",
               ci.margin == 0.06 && ci.low() == 1.19 && ci.high() == 1.31);
    report.add("oracle.single_unit_stratum_finite_ci",
               std::isfinite(ci1.margin) && std::isfinite(ci1.low()) &&
                   std::isfinite(ci1.high()));
  }

  // --- CI coverage on a synthetic population with known per-stratum
  // variance: resample, estimate, and count hits of the 95% interval.
  // Binomial tolerance: the hit count is Binomial(R, 0.95), so coverage must
  // land within ~6 standard errors of 0.95 (plus FPC/normal-approx slack).
  {
    const std::size_t pops[] = {400, 300, 300};
    const double mus[] = {1.2, 0.9, 0.5};
    const double sigmas[] = {0.30, 0.15, 0.05};
    std::vector<std::vector<double>> values(3);
    std::vector<Stratum> strata;
    double truth_num = 0.0;
    for (std::size_t h = 0; h < 3; ++h) {
      Rng rng = Rng::stream(cfg.seed, 0xC0 + h);
      for (std::size_t i = 0; i < pops[h]; ++i) {
        values[h].push_back(mus[h] + sigmas[h] * rng.next_gaussian());
      }
      Stratum s;
      s.population = pops[h];
      s.stddev = stats::sample_stddev(values[h]);
      s.mean = stats::mean(values[h]);
      truth_num += s.mean * static_cast<double>(pops[h]);
      strata.push_back(s);
    }
    const double n_pop = 1000.0;
    const double truth = truth_num / n_pop;

    const auto alloc = alloc_fn(strata, 60, 1);
    const double se = stats::stratified_standard_error(strata, alloc);
    std::size_t hits = 0;
    for (std::size_t r = 0; r < cfg.coverage_resamples; ++r) {
      Rng rng = Rng::stream(cfg.seed, 0x5A000 + r);
      double est = 0.0;
      for (std::size_t h = 0; h < 3; ++h) {
        // Partial Fisher–Yates without replacement; clamp so a broken
        // allocator over-asking cannot crash the harness (it fails the
        // property and coverage checks instead).
        const std::size_t nh =
            std::min(h < alloc.size() ? alloc[h] : 0, values[h].size());
        if (nh == 0) continue;
        std::vector<std::size_t> idx(values[h].size());
        std::iota(idx.begin(), idx.end(), std::size_t{0});
        double mean_h = 0.0;
        for (std::size_t i = 0; i < nh; ++i) {
          const std::size_t j = i + rng.next_below(idx.size() - i);
          std::swap(idx[i], idx[j]);
          mean_h += values[h][idx[i]];
        }
        mean_h /= static_cast<double>(nh);
        est += mean_h * static_cast<double>(pops[h]) / n_pop;
      }
      hits += std::abs(est - truth) <= stats::kZ95 * se ? 1 : 0;
      ++report.cases_run;
    }
    const double coverage =
        static_cast<double>(hits) / static_cast<double>(cfg.coverage_resamples);
    const double binom_sd = std::sqrt(
        0.95 * 0.05 / static_cast<double>(cfg.coverage_resamples));
    const double tol = std::max(0.015, 6.0 * binom_sd);
    std::ostringstream detail;
    detail << "coverage " << coverage << " vs nominal 0.95 ± " << tol << " ("
           << cfg.coverage_resamples << " resamples)";
    report.add("oracle.ci_coverage", std::abs(coverage - 0.95) <= tol,
               detail.str());
    report.fingerprint = fnv1a(report.fingerprint, hits);
  }

  // --- Neyman no worse than proportional on SE — the point of Eq. 1.
  {
    std::size_t bad = 0;
    for (std::size_t t = 0; t < cfg.property_trials; ++t) {
      Rng rng = Rng::stream(cfg.seed, 0xBEA7 + t);
      const std::size_t h = 2 + rng.next_below(5);
      std::vector<Stratum> strata;
      std::size_t pop = 0;
      for (std::size_t i = 0; i < h; ++i) {
        Stratum s;
        s.population = 20 + rng.next_below(200);
        s.stddev = rng.next_double(0.0, 2.0);
        s.mean = rng.next_double(0.5, 2.0);
        pop += s.population;
        strata.push_back(s);
      }
      const std::size_t n = std::max<std::size_t>(h, pop / 10);
      const double se_test =
          stats::stratified_standard_error(strata, alloc_fn(strata, n, 1));
      const double se_prop = stats::stratified_standard_error(
          strata, stats::proportional_allocation(strata, n));
      bad += se_test <= se_prop * 1.05 ? 0 : 1;  // 5% slack for floors
    }
    report.add("oracle.neyman_beats_proportional", bad == 0,
               std::to_string(bad) + "/" + std::to_string(cfg.property_trials) +
                   " trials worse than proportional");
  }

  // --- Required sample size actually achieves its target margin.
  {
    const std::vector<Stratum> strata{{400, 0.5, 1.2}, {300, 0.2, 0.9},
                                      {300, 0.05, 0.5}};
    const double mu = stats::stratified_population_mean(strata);
    bool ok = true;
    for (const double r : {0.10, 0.05, 0.02}) {
      const auto n = stats::required_sample_size(strata, r, stats::kZ997);
      const double se =
          stats::stratified_standard_error(strata, alloc_fn(strata, n, 1));
      ok = ok && stats::kZ997 * se <= r * mu * 1.12;
    }
    report.add("oracle.required_size_achieves_margin", ok);
  }

  // --- The exact silhouette against its naive reference, singleton included.
  {
    Rng rng = Rng::stream(cfg.seed, 0x5117);
    const std::size_t n = 120, d = 3, k = 4;
    stats::Matrix pts(n, d);
    stats::Matrix centers(k, d);
    std::vector<std::size_t> labels(n);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t f = 0; f < d; ++f) {
        centers.at(c, f) = rng.next_double(-4.0, 4.0);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = rng.next_below(k - 1);  // cluster k-1 stays empty for now
      for (std::size_t f = 0; f < d; ++f) {
        pts.at(i, f) = centers.at(labels[i], f) + rng.next_gaussian() * 0.7;
      }
    }
    labels[0] = k - 1;  // force a singleton cluster
    const double exact = stats::exact_silhouette(pts, labels, k, 1);
    const double ref = reference_exact_silhouette(pts, labels, k);
    report.add("oracle.exact_silhouette_matches_reference",
               std::abs(exact - ref) < 1e-8,
               "exact " + std::to_string(exact) + " vs reference " +
                   std::to_string(ref) + " (singleton cluster present)");
  }

  // --- Feature selection: a correlated column must outrank noise; constant
  // columns score exactly 0 and are excluded from top-k.
  {
    Rng rng = Rng::stream(cfg.seed, 0xFEA7);
    const std::size_t n = 64;
    stats::Matrix x(n, 3);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = rng.next_double(0.0, 2.0);
      x.at(i, 0) = 3.0 * y[i] + rng.next_gaussian() * 0.05;  // strong signal
      x.at(i, 1) = 7.0;                                      // constant
      x.at(i, 2) = rng.next_gaussian();                      // noise
    }
    const auto scores = stats::f_regression(x, y);
    const auto top = stats::top_k_indices(scores, 2);
    report.add("oracle.f_regression_ranks_signal",
               scores[0] > scores[2] && scores[1] == 0.0 && top.size() == 2 &&
                   top[0] == 0,
               "scores " + std::to_string(scores[0]) + ", " +
                   std::to_string(scores[1]) + ", " +
                   std::to_string(scores[2]));
  }

  // --- Feature selection vs the textbook formula: the single-pass blocked
  // kernel must agree with a naive O(n·d) per-column Pearson r → F
  // conversion on a wide random matrix (mix of signal, noise, and a
  // constant column). The naive path copies each column and runs the
  // two-pass centered pearson() — deliberately the slow reference.
  {
    Rng rng = Rng::stream(cfg.seed, 0xF2E6);
    const std::size_t n = 96, d = 48;
    stats::Matrix x(n, d);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = rng.next_double(0.0, 2.0);
    for (std::size_t f = 0; f < d; ++f) {
      const double slope = (f % 3 == 0) ? rng.next_double(-2.0, 2.0) : 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        x.at(i, f) = slope * y[i] + rng.next_gaussian();
      }
    }
    for (std::size_t i = 0; i < n; ++i) x.at(i, 7) = 3.25;  // constant column
    const auto scores = stats::f_regression(x, y);
    bool ok = scores.size() == d;
    double worst = 0.0;
    std::size_t worst_col = 0;
    for (std::size_t f = 0; ok && f < d; ++f) {
      std::vector<double> col(n);
      const auto view = x.column_view(f);
      for (std::size_t i = 0; i < n; ++i) col[i] = view[i];
      const double r = stats::pearson(col, y);
      double expect = 0.0;
      if (f != 7) {
        const double r2 = std::min(r * r, 1.0 - 1e-12);
        expect = r2 / (1.0 - r2) * static_cast<double>(n - 2);
      }
      const double err =
          std::abs(scores[f] - expect) / std::max(1.0, std::abs(expect));
      if (err > worst) {
        worst = err;
        worst_col = f;
      }
      ok = ok && err < 1e-9;
    }
    report.add("oracle.f_regression_matches_naive_pearson", ok,
               "worst relative error " + std::to_string(worst) + " at column " +
                   std::to_string(worst_col) + " over " + std::to_string(d) +
                   " columns");
  }

  // --- Two-phase estimator, closed form. Phase-1 counts {2, 2} (w′ = ½
  // each), measured values {1, 3} and {5, 7}: ȳ_ds = ½·2 + ½·6 = 4,
  // V̂ = [¼·2/2 + ¼·2/2] + ¼·[½·4 + ½·4] = 0.5 + 1.0 = 1.5, SE = √1.5.
  {
    std::vector<stats::TwoPhaseStratum> tp(2);
    tp[0] = {2, 2, stats::mean(std::vector<double>{1.0, 3.0}),
             stats::sample_stddev(std::vector<double>{1.0, 3.0})};
    tp[1] = {2, 2, stats::mean(std::vector<double>{5.0, 7.0}),
             stats::sample_stddev(std::vector<double>{5.0, 7.0})};
    const auto est = stats::two_phase_estimate(tp, stats::kZ997);
    const bool ok = std::abs(est.mean - 4.0) < 1e-12 &&
                    std::abs(est.variance - 1.5) < 1e-12 &&
                    std::abs(est.standard_error - std::sqrt(1.5)) < 1e-12 &&
                    std::abs(est.ci.margin - 3.0 * std::sqrt(1.5)) < 1e-12;
    std::ostringstream o;
    o << "mean " << est.mean << " var " << est.variance << " se "
      << est.standard_error;
    report.add("oracle.two_phase_closed_form", ok, o.str());
  }

  // --- Two-phase allocation reuses the Eq. 1 machinery against phase-1
  // counts: n′_h·σ_h of 100 and 300 split n = 40 exactly 1:3.
  {
    const std::size_t counts[] = {100, 100};
    const double priors[] = {1.0, 3.0};
    const auto a = stats::two_phase_allocation(counts, priors, 40, 1);
    report.add("oracle.two_phase_allocation_closed_form",
               a.size() == 2 && a[0] == 10 && a[1] == 30,
               "expected {10, 30}");
  }

  // --- Two-phase degenerate conventions: zero-variance strata give an
  // exactly zero-width CI at the stratified mean; a singleton measured
  // stratum, NaN/∞ deviations and unmeasured strata all stay finite.
  {
    std::vector<stats::TwoPhaseStratum> flat(3);
    for (std::size_t h = 0; h < 3; ++h) flat[h] = {10, 2, 1.5, 0.0};
    const auto est = stats::two_phase_estimate(flat, stats::kZ997);
    report.add("oracle.two_phase_zero_variance_zero_width",
               est.mean == 1.5 && est.variance == 0.0 && est.ci.margin == 0.0);

    std::vector<stats::TwoPhaseStratum> ugly(4);
    ugly[0] = {5, 1, 1.2, 0.0};                            // singleton
    ugly[1] = {7, 3, 0.9, std::nan("")};                   // NaN deviation
    ugly[2] = {4, 2, std::numeric_limits<double>::infinity(), 2.0};  // ∞ mean
    ugly[3] = {6, 0, 0.0, 0.0};                            // never measured
    const auto e2 = stats::two_phase_estimate(ugly, stats::kZ997);
    report.add("oracle.two_phase_degenerate_finite",
               std::isfinite(e2.mean) && std::isfinite(e2.variance) &&
                   e2.variance >= 0.0 && std::isfinite(e2.ci.margin));

    const auto empty = stats::two_phase_estimate({}, stats::kZ997);
    report.add("oracle.two_phase_empty_is_zero",
               empty.mean == 0.0 && empty.standard_error == 0.0);
  }

  // --- Two-phase property sweep mirroring the Neyman one: random phase-1
  // counts and measurements (including degenerate deviations) must always
  // produce a finite estimate, a non-negative variance, and an allocation
  // that sums to the documented floor-respecting total and never exceeds a
  // stratum's phase-1 count.
  {
    std::size_t bad = 0;
    std::string first;
    for (std::size_t t = 0; t < cfg.property_trials; ++t) {
      Rng rng = Rng::stream(cfg.seed, 0xD5A1 + t);
      const std::size_t h = 1 + rng.next_below(6);
      std::vector<std::size_t> counts(h);
      std::vector<double> priors(h);
      std::size_t pop_total = 0;
      std::size_t non_empty = 0;
      for (std::size_t i = 0; i < h; ++i) {
        counts[i] = rng.next_below(64);  // 0 allowed
        priors[i] = rng.next_double(0.0, 2.0);
        if (rng.next_bool(0.1)) priors[i] = std::nan("");
        pop_total += counts[i];
        non_empty += counts[i] > 0 ? 1 : 0;
      }
      const std::size_t total = rng.next_below(pop_total + 8);
      const auto a = stats::two_phase_allocation(counts, priors, total, 1);
      const std::size_t expect =
          std::max(std::min(total, pop_total), non_empty);
      bool ok = a.size() == h && sum_of(a) == expect;
      std::vector<stats::TwoPhaseStratum> tp(h);
      for (std::size_t i = 0; ok && i < h; ++i) {
        ok = a[i] <= counts[i];
        tp[i].phase1_count = counts[i];
        tp[i].sample_size = a[i];
        tp[i].sample_mean = rng.next_double(0.5, 2.0);
        tp[i].sample_stddev =
            a[i] > 1 ? rng.next_double(0.0, 1.0) : 0.0;
        if (rng.next_bool(0.05)) tp[i].sample_stddev = std::nan("");
      }
      const auto est = stats::two_phase_estimate(tp, stats::kZ997);
      ok = ok && std::isfinite(est.mean) && std::isfinite(est.variance) &&
           est.variance >= 0.0 && std::isfinite(est.ci.margin);
      if (!ok && first.empty()) {
        std::ostringstream o;
        o << "trial " << t << " total " << total << " sum " << sum_of(a)
          << " expect " << expect;
        first = o.str();
      }
      bad += ok ? 0 : 1;
      report.fingerprint = fnv1a(report.fingerprint, sum_of(a));
      ++report.cases_run;
    }
    report.add("oracle.two_phase_properties", bad == 0,
               bad == 0 ? std::to_string(cfg.property_trials) + " cases"
                        : std::to_string(bad) + " violations; first: " + first);
  }

  for (const auto& c : report.checks) {
    if (!c.passed) oracle_failures.increment();
    report.fingerprint = fnv1a(report.fingerprint, c.passed);
  }
  return report;
}

}  // namespace simprof::verify
