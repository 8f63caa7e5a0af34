// Silhouette coefficients for scoring a clustering.
//
// The paper scores each candidate k with the silhouette coefficient. The
// exact coefficient is O(n²·d); for the per-unit feature matrices SimProf
// clusters (hundreds to thousands of units) choose_k scores each k with the
// *sampled* exact silhouette (a seeded subsample of at most
// kDefaultSilhouetteSample points, stats/kmeans.cc); the full exact version
// is kept for validation. (The simplified silhouette — distances to
// centroids, O(n·k·d) — is not offered: it inflates on unstructured data
// as k grows.)
//
// Both variants run their pairwise-distance passes through the blocked
// ‖x‖²+‖y‖²−2·x·y kernel (stats/matrix.h DistanceTable) over row chunks on
// support::ThreadPool, with per-chunk partial sums merged in chunk order —
// the score is bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/matrix.h"

namespace simprof::stats {

/// Default sampled_silhouette subsample size — keeps a k = 1..20 sweep
/// O(max_points²·d) per k.
inline constexpr std::size_t kDefaultSilhouetteSample = 400;

/// Exact mean silhouette over all points. Requires ≥ 2 non-empty clusters;
/// returns 0 otherwise. Points in singleton clusters contribute 0 (sklearn
/// convention). threads = 0 → global default.
double exact_silhouette(const Matrix& points,
                        std::span<const std::size_t> labels,
                        std::size_t num_clusters, std::size_t threads = 0);

/// Exact silhouette over a seeded random subsample of at most `max_points`
/// points. Exact silhouette resists the over-fitting inflation the paper
/// warns about (Section V); the random subset (unlike the old deterministic
/// stride, which aliased with periodic unit orderings and could starve
/// whole clusters) is unbiased while staying reproducible per seed.
double sampled_silhouette(const Matrix& points,
                          std::span<const std::size_t> labels,
                          std::size_t num_clusters,
                          std::size_t max_points = kDefaultSilhouetteSample,
                          std::uint64_t seed = 0x5a3b1eULL,
                          std::size_t threads = 0);

}  // namespace simprof::stats
