#include "stats/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "stats/silhouette.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace simprof::stats {
namespace {

/// Rows per parallel_for chunk in the assignment step — big enough that the
/// blocked kernel amortises, small enough that 20-way sweeps load-balance.
constexpr std::size_t kRowGrain = 128;

/// k-means++ seeding: first center uniform, subsequent centers sampled with
/// probability proportional to squared distance to the nearest chosen center.
/// Distances use the ‖x‖²+‖c‖²−2·x·c expansion against the precomputed row
/// norms, same as the assignment kernel.
Matrix seed_plus_plus(const Matrix& points, std::span<const double> norms,
                      std::size_t k, Rng& rng) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  Matrix centers(k, d);

  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  std::size_t first = static_cast<std::size_t>(rng.next_below(n));
  std::copy_n(points.row(first).data(), d, centers.row(0).data());

  for (std::size_t c = 1; c < k; ++c) {
    const auto prev = centers.row(c - 1);
    const double cn = dot_product(prev, prev);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d2 = std::max(
          0.0, norms[i] + cn - 2.0 * dot_product(points.row(i), prev));
      dist2[i] = std::min(dist2[i], d2);
      total += dist2[i];
    }
    std::size_t pick = 0;
    if (total > 0.0) {
      double target = rng.next_double() * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= dist2[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = static_cast<std::size_t>(rng.next_below(n));
    }
    std::copy_n(points.row(pick).data(), d, centers.row(c).data());
  }
  return centers;
}

KMeansResult lloyd(const Matrix& points, std::span<const double> norms,
                   Matrix centers, const KMeansConfig& cfg) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t k = centers.rows();
  const std::size_t num_chunks = (n + kRowGrain - 1) / kRowGrain;

  KMeansResult res;
  res.labels.assign(n, 0);
  std::vector<double> dist2(n, 0.0);
  std::vector<double> partial(num_chunks, 0.0);
  double prev_inertia = std::numeric_limits<double>::max();

  for (std::size_t iter = 0; iter < cfg.max_iterations; ++iter) {
    // Assignment step: blocked ‖x‖²+‖c‖²−2·x·c kernel over row chunks.
    // Per-chunk inertia partials merge in chunk order so the sum is
    // bit-identical for any thread count.
    const DistanceTable table(centers);
    support::parallel_for(
        cfg.threads, 0, n, kRowGrain,
        [&](std::size_t chunk, std::size_t b, std::size_t e) {
          table.nearest(points, norms, b, e,
                        std::span<std::size_t>(res.labels).subspan(b, e - b),
                        std::span<double>(dist2).subspan(b, e - b));
          double acc = 0.0;
          for (std::size_t i = b; i < e; ++i) acc += dist2[i];
          partial[chunk] = acc;
        });
    double inertia = 0.0;
    for (const double p : partial) inertia += p;

    // Update step (O(n·d), cheap next to assignment — kept serial so the
    // center accumulation order is fixed).
    Matrix next(k, d);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = res.labels[i];
      ++counts[c];
      auto dst = next.row(c);
      const auto src = points.row(i);
      for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed it at the point farthest from its assigned
        // center — dist2 already holds exactly that distance.
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (dist2[i] > far_d) {
            far_d = dist2[i];
            far = i;
          }
        }
        std::copy_n(points.row(far).data(), d, next.row(c).data());
        continue;
      }
      auto dst = next.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        dst[j] /= static_cast<double>(counts[c]);
      }
    }
    centers = std::move(next);
    res.iterations = iter + 1;
    res.inertia = inertia;
    if (prev_inertia - inertia < cfg.tolerance) break;
    prev_inertia = inertia;
  }
  res.centers = std::move(centers);
  static obs::QuantileHistogram& iters =
      obs::metrics().quantile_histogram("kmeans.lloyd_iterations");
  iters.observe(static_cast<double>(res.iterations));
  return res;
}

/// Restart loop against precomputed row norms: one fixed-seed stream per
/// restart, run across the pool; ties on inertia keep the lowest restart so
/// the winner matches the serial sweep.
KMeansResult kmeans_with_norms(const Matrix& points,
                               std::span<const double> norms, std::size_t k,
                               std::uint64_t restart_seed,
                               const KMeansConfig& cfg) {
  const std::size_t restarts = std::max<std::size_t>(1, cfg.restarts);
  std::vector<KMeansResult> candidates(restarts);
  support::parallel_for(
      cfg.threads, 0, restarts, 1,
      [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t r = b; r < e; ++r) {
          Rng stream = Rng::stream(restart_seed, r);
          candidates[r] = lloyd(points, norms,
                                seed_plus_plus(points, norms, k, stream), cfg);
        }
      });
  std::size_t best = 0;
  for (std::size_t r = 1; r < restarts; ++r) {
    if (candidates[r].inertia < candidates[best].inertia) best = r;
  }
  return std::move(candidates[best]);
}

}  // namespace

KMeansResult kmeans(const Matrix& points, std::size_t k, Rng& rng,
                    const KMeansConfig& cfg) {
  SIMPROF_EXPECTS(!points.empty(), "kmeans on empty matrix");
  SIMPROF_EXPECTS(k >= 1 && k <= points.rows(),
                  "k must be in [1, number of points]");
  const std::vector<double> norms = row_squared_norms(points);
  return kmeans_with_norms(points, norms, k, rng.next_u64(), cfg);
}

ChooseKResult choose_k(const Matrix& points, Rng& rng,
                       const ChooseKConfig& cfg) {
  SIMPROF_EXPECTS(!points.empty(), "choose_k on empty matrix");
  // Clamp the sweep to the population: k > n is undefined for k-means, and
  // a zero max_k would leave the sweep (and the best-score reduction below)
  // operating on nothing — both are trivially reachable from early-stream
  // snapshots and tiny profiles, and both must degrade to a defined sweep
  // instead of contract-aborting.
  const std::size_t max_k = std::max<std::size_t>(
      1, std::min<std::size_t>(cfg.max_k, points.rows()));
  obs::ObsSpan sweep_span(
      "choose_k", {{"points", points.rows()}, {"max_k", max_k}});
  static obs::Counter& sweeps = obs::metrics().counter("choose_k.sweeps");
  sweeps.increment();

  // One draw of the caller's rng seeds the whole sweep; each k forks a
  // fixed stream from it, so the sweep order (and thread count) cannot
  // change any clustering.
  const std::uint64_t sweep_seed = rng.next_u64();
  const std::vector<double> norms = row_squared_norms(points);

  KMeansConfig km = cfg.kmeans;
  if (km.threads == 0) km.threads = cfg.threads;

  ChooseKResult out;
  std::vector<KMeansResult> clusterings(max_k);
  out.scores.assign(max_k, 0.0);

  support::parallel_for(
      cfg.threads, 0, max_k, 1,
      [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t idx = b; idx < e; ++idx) {
          const std::size_t k = idx + 1;
          obs::ObsSpan k_span("choose_k.k", {{"k", k}});
          const std::uint64_t restart_seed =
              Rng::stream(sweep_seed, k).next_u64();
          KMeansResult r =
              kmeans_with_norms(points, norms, k, restart_seed, km);
          out.scores[idx] =
              (k == 1) ? cfg.k1_baseline_score
                       : sampled_silhouette(points, r.labels, k,
                                            kDefaultSilhouetteSample,
                                            cfg.silhouette_seed + k,
                                            km.threads);
          clusterings[idx] = std::move(r);
        }
      });

  const double best = *std::max_element(out.scores.begin(), out.scores.end());
  const double cutoff = cfg.score_fraction * best;
  std::size_t chosen = max_k;  // fall back to the largest k
  for (std::size_t k = 1; k <= max_k; ++k) {
    if (out.scores[k - 1] >= cutoff) {
      chosen = k;
      break;
    }
  }
  out.k = chosen;
  out.clustering = std::move(clusterings[chosen - 1]);
  SIMPROF_LOG(kDebug) << "choose_k: k=" << out.k << " of max_k=" << max_k
                      << " score=" << out.scores[out.k - 1]
                      << " best=" << best;
  return out;
}

}  // namespace simprof::stats
