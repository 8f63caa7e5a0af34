// Lloyd's k-means with k-means++ seeding — the phase-formation clusterer.
//
// SimProf clusters per-unit method-frequency feature vectors into phases
// (Section III-B of the paper). The number of phases k is chosen by sweeping
// k = 1..max_k and scoring each clustering with the silhouette coefficient
// (see silhouette.h); `choose_k` implements the paper's "smallest k with at
// least 90% of the highest score" rule.
//
// Parallelism and determinism: the hot paths (Lloyd assignment, the restart
// loop, and choose_k's k-sweep) run on support::ThreadPool. Every stochastic
// unit of work gets its own fixed-seed Rng stream (Rng::stream) and every
// floating-point reduction is merged in a fixed chunk order, so results are
// bit-identical for any thread count, including threads = 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/matrix.h"
#include "support/rng.h"

namespace simprof::stats {

struct KMeansConfig {
  std::size_t max_iterations = 64;
  std::size_t restarts = 2;       ///< independent k-means++ seedings; best kept
  double tolerance = 1e-7;        ///< stop when inertia improves less than this
  std::size_t threads = 0;        ///< 0 = global default (hardware_concurrency)
};

struct KMeansResult {
  Matrix centers;                   ///< k × d
  std::vector<std::size_t> labels;  ///< n
  double inertia = 0.0;             ///< Σ squared distance to assigned center
  std::size_t iterations = 0;       ///< iterations of the winning restart
};

/// Cluster `points` (n × d) into k clusters. k must be in [1, n]. Restarts
/// use independent streams forked from one draw of `rng`, run across the
/// pool, and ties on inertia resolve to the lowest restart index.
KMeansResult kmeans(const Matrix& points, std::size_t k, Rng& rng,
                    const KMeansConfig& cfg = {});

struct ChooseKConfig {
  /// Upper bound of the k sweep (paper: k swept from 1 to 20). The sweep is
  /// clamped to min(max_k, points.rows()) — a profile with fewer units than
  /// max_k (tiny inputs, early-stream snapshots) sweeps what it has instead
  /// of contract-aborting — and a zero max_k is clamped up to 1.
  std::size_t max_k = 20;
  double score_fraction = 0.90;    ///< paper: smallest k within 90% of best
  double k1_baseline_score = 0.45; ///< silhouette stand-in for k = 1 (it is
                                   ///< undefined there); lets single-phase
                                   ///< workloads win when no split is crisp
  std::size_t threads = 0;         ///< 0 = global default; the k-sweep, the
                                   ///< restarts and the row blocks share it
  /// Seed for the sampled-silhouette random subsample (one sub-stream per
  /// k). A seeded subset, unlike the old fixed stride, cannot alias with
  /// periodic unit orderings.
  std::uint64_t silhouette_seed = 0x51105e77eULL;
  KMeansConfig kmeans;
};

struct ChooseKResult {
  std::size_t k = 1;
  KMeansResult clustering;
  std::vector<double> scores;  ///< silhouette per k (index 0 ↔ k = 1)
};

/// Sweep k = 1..max_k, score with the sampled silhouette coefficient and
/// return the smallest k whose score is ≥ score_fraction × best score. The
/// sweep runs across the pool: each k gets an independent fixed-seed stream
/// derived from one draw of `rng`, and results merge in k order, so the
/// outcome is identical to the serial sweep for any thread count.
ChooseKResult choose_k(const Matrix& points, Rng& rng,
                       const ChooseKConfig& cfg = {});

}  // namespace simprof::stats
