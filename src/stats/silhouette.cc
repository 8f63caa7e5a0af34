#include "stats/silhouette.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "support/assert.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace simprof::stats {
namespace {

/// Rows per chunk of the O(n²) exact pass; the chunk's distance block is
/// kGrainExact × n doubles, sized to stay cache-resident.
constexpr std::size_t kGrainExact = 32;

/// counts per cluster + the ≥ 2 non-empty precondition of the exact
/// silhouette.
bool cluster_counts(std::span<const std::size_t> labels,
                    std::size_t num_clusters,
                    std::vector<std::size_t>& counts) {
  counts.assign(num_clusters, 0);
  for (auto l : labels) {
    SIMPROF_EXPECTS(l < num_clusters, "label out of range");
    ++counts[l];
  }
  std::size_t non_empty = 0;
  for (auto c : counts) non_empty += (c > 0) ? 1 : 0;
  return non_empty >= 2;
}

/// Σ of a contiguous run with four independent accumulators — fixed merge
/// order (deterministic) but enough ILP for the FP add pipeline.
double segment_sum(const double* __restrict v, std::size_t len) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    s0 += v[j];
    s1 += v[j + 1];
    s2 += v[j + 2];
    s3 += v[j + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; j < len; ++j) s += v[j];
  return s;
}

}  // namespace

double exact_silhouette(const Matrix& points,
                        std::span<const std::size_t> labels,
                        std::size_t num_clusters, std::size_t threads) {
  const std::size_t n = points.rows();
  SIMPROF_EXPECTS(labels.size() == n, "labels length mismatch");
  if (n == 0 || num_clusters < 2) return 0.0;

  std::vector<std::size_t> counts;
  if (!cluster_counts(labels, num_clusters, counts)) return 0.0;

  // Group rows by cluster (stable within a cluster) so each per-cluster
  // distance sum is a contiguous segment sum instead of a label-indexed
  // scatter add; a plain sqrt pass over the row vectorizes, the segment
  // sums pipeline. The mean silhouette is permutation-invariant, and the
  // grouping depends only on the labels, never on the thread count.
  std::vector<std::size_t> offsets(num_clusters + 1, 0);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    offsets[c + 1] = offsets[c] + counts[c];
  }
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  Matrix grouped(n, points.cols());
  std::vector<std::size_t> grouped_labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = cursor[labels[i]]++;
    const auto src = points.row(i);
    std::copy(src.begin(), src.end(), grouped.row(pos).begin());
    grouped_labels[pos] = labels[i];
  }

  const std::vector<double> norms = row_squared_norms(grouped);
  const DistanceTable table(grouped);

  const std::size_t num_chunks = (n + kGrainExact - 1) / kGrainExact;
  std::vector<double> partial(num_chunks, 0.0);
  support::parallel_for(
      threads, 0, n, kGrainExact,
      [&](std::size_t chunk, std::size_t cb, std::size_t ce) {
        std::vector<double> block((ce - cb) * n);
        table.squared_distances(grouped, norms, cb, ce, block);
        std::vector<double> dist(n);
        std::vector<double> sums(num_clusters);
        double acc = 0.0;
        for (std::size_t i = cb; i < ce; ++i) {
          const std::size_t li = grouped_labels[i];
          if (counts[li] <= 1) continue;  // singleton → s(i) = 0
          const double* __restrict d2 = block.data() + (i - cb) * n;
          double* __restrict d = dist.data();
          for (std::size_t j = 0; j < n; ++j) d[j] = std::sqrt(d2[j]);
          for (std::size_t c = 0; c < num_clusters; ++c) {
            sums[c] = segment_sum(d + offsets[c], counts[c]);
          }
          sums[li] -= d[i];  // exclude the self-distance from a(i)
          const double a = sums[li] / static_cast<double>(counts[li] - 1);
          double b = std::numeric_limits<double>::max();
          for (std::size_t c = 0; c < num_clusters; ++c) {
            if (c == li || counts[c] == 0) continue;
            b = std::min(b, sums[c] / static_cast<double>(counts[c]));
          }
          const double denom = std::max(a, b);
          acc += (denom > 0.0) ? (b - a) / denom : 0.0;
        }
        partial[chunk] = acc;
      });

  double total = 0.0;
  for (const double p : partial) total += p;
  return total / static_cast<double>(n);
}

double sampled_silhouette(const Matrix& points,
                          std::span<const std::size_t> labels,
                          std::size_t num_clusters, std::size_t max_points,
                          std::uint64_t seed, std::size_t threads) {
  const std::size_t n = points.rows();
  SIMPROF_EXPECTS(labels.size() == n, "labels length mismatch");
  SIMPROF_EXPECTS(max_points >= 2, "need at least two sampled points");
  static obs::QuantileHistogram& sample_sizes =
      obs::metrics().quantile_histogram("silhouette.sample_size");
  sample_sizes.observe(static_cast<double>(std::min(n, max_points)));
  if (n <= max_points) {
    return exact_silhouette(points, labels, num_clusters, threads);
  }

  // Seeded uniform subset via partial Fisher–Yates, then sorted so the
  // submatrix walks `points` in storage order.
  Rng rng(seed);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < max_points; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  std::vector<std::size_t> picks(idx.begin(), idx.begin() + max_points);
  std::sort(picks.begin(), picks.end());

  Matrix sub(picks.size(), points.cols());
  std::vector<std::size_t> sub_labels(picks.size());
  for (std::size_t j = 0; j < picks.size(); ++j) {
    const auto src = points.row(picks[j]);
    std::copy(src.begin(), src.end(), sub.row(j).begin());
    sub_labels[j] = labels[picks[j]];
  }
  return exact_silhouette(sub, sub_labels, num_clusters, threads);
}

}  // namespace simprof::stats
