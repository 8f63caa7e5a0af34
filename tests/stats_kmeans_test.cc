// Unit tests for the matrix type, k-means clustering, silhouette scoring,
// and the univariate-regression feature selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "stats/feature_select.h"
#include "stats/kmeans.h"
#include "stats/matrix.h"
#include "stats/silhouette.h"
#include "support/assert.h"
#include "support/rng.h"

namespace simprof::stats {
namespace {

Matrix gaussian_blobs(const std::vector<std::pair<double, double>>& centers,
                      std::size_t per_blob, double spread, Rng& rng) {
  Matrix m(centers.size() * per_blob, 2);
  std::size_t r = 0;
  for (const auto& [cx, cy] : centers) {
    for (std::size_t i = 0; i < per_blob; ++i, ++r) {
      m.at(r, 0) = cx + spread * rng.next_gaussian();
      m.at(r, 1) = cy + spread * rng.next_gaussian();
    }
  }
  return m;
}

TEST(Matrix, IndexingAndRows) {
  Matrix m(2, 3);
  m.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.row(1)[2], 5.0);
  EXPECT_THROW(m.at(2, 0), ContractViolation);
  EXPECT_THROW(m.row(5), ContractViolation);
}

TEST(Matrix, SelectColumnsPreservesOrder) {
  Matrix m(2, 3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m.at(r, c) = static_cast<double>(10 * r + c);
    }
  }
  std::vector<std::size_t> cols{2, 0};
  Matrix s = m.select_columns(cols);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 12.0);
}

TEST(Matrix, NormalizeRowsL1) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 3.0;
  // Row 1 is all zeros and must stay untouched.
  m.normalize_rows_l1();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
}

TEST(Matrix, Distances) {
  std::vector<double> a{0.0, 3.0};
  std::vector<double> b{4.0, 0.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  Rng rng(17);
  Matrix pts = gaussian_blobs({{0, 0}, {10, 0}, {0, 10}}, 40, 0.3, rng);
  KMeansResult res = kmeans(pts, 3, rng);
  // All points of a blob share a label, and the three blobs get 3 labels.
  std::set<std::size_t> blob_labels;
  for (std::size_t b = 0; b < 3; ++b) {
    const std::size_t l = res.labels[b * 40];
    blob_labels.insert(l);
    for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(res.labels[b * 40 + i], l);
  }
  EXPECT_EQ(blob_labels.size(), 3u);
}

TEST(KMeans, KEqualsOneGivesCentroid) {
  Rng rng(3);
  Matrix pts(4, 1);
  pts.at(0, 0) = 1;
  pts.at(1, 0) = 2;
  pts.at(2, 0) = 3;
  pts.at(3, 0) = 6;
  KMeansResult res = kmeans(pts, 1, rng);
  EXPECT_NEAR(res.centers.at(0, 0), 3.0, 1e-9);
}

TEST(KMeans, KEqualsNPutsEveryPointAlone) {
  Rng rng(4);
  Matrix pts(5, 1);
  for (std::size_t i = 0; i < 5; ++i) pts.at(i, 0) = static_cast<double>(i);
  KMeansResult res = kmeans(pts, 5, rng);
  std::set<std::size_t> labels(res.labels.begin(), res.labels.end());
  EXPECT_EQ(labels.size(), 5u);
  EXPECT_NEAR(res.inertia, 0.0, 1e-12);
}

TEST(KMeans, InvalidKThrows) {
  Rng rng(1);
  Matrix pts(3, 1);
  EXPECT_THROW(kmeans(pts, 0, rng), ContractViolation);
  EXPECT_THROW(kmeans(pts, 4, rng), ContractViolation);
}

TEST(Silhouette, HighForSeparatedLowForMixed) {
  Rng rng(23);
  Matrix good = gaussian_blobs({{0, 0}, {20, 0}}, 30, 0.2, rng);
  std::vector<std::size_t> good_labels(60);
  for (std::size_t i = 30; i < 60; ++i) good_labels[i] = 1;
  const double s_good = exact_silhouette(good, good_labels, 2);
  EXPECT_GT(s_good, 0.9);

  // Random labels over one blob: silhouette near (or below) zero.
  Matrix bad = gaussian_blobs({{0, 0}}, 60, 1.0, rng);
  std::vector<std::size_t> bad_labels(60);
  for (std::size_t i = 0; i < 60; ++i) bad_labels[i] = i % 2;
  EXPECT_LT(exact_silhouette(bad, bad_labels, 2), 0.2);
}

TEST(Silhouette, SimplifiedTracksExactOrdering) {
  Rng rng(31);
  Matrix pts = gaussian_blobs({{0, 0}, {8, 0}, {0, 8}}, 25, 0.5, rng);
  // Score the same data under k = 2, 3, 4 clusterings; the exact
  // silhouette must rate k = 3 at least as good as 2 and 4.
  double exact[3];
  for (std::size_t k = 2; k <= 4; ++k) {
    KMeansResult r = kmeans(pts, k, rng);
    exact[k - 2] = exact_silhouette(pts, r.labels, k);
  }
  EXPECT_GE(exact[1], exact[0]);
  EXPECT_GE(exact[1], exact[2]);
}

TEST(Silhouette, FewerThanTwoClustersScoresZero) {
  Matrix pts(3, 1);
  std::vector<std::size_t> labels{0, 0, 0};
  EXPECT_DOUBLE_EQ(exact_silhouette(pts, labels, 1), 0.0);
}

TEST(ChooseK, FindsThreeBlobs) {
  Rng rng(41);
  Matrix pts = gaussian_blobs({{0, 0}, {10, 0}, {0, 10}}, 30, 0.3, rng);
  ChooseKResult r = choose_k(pts, rng);
  EXPECT_EQ(r.k, 3u);
}

TEST(ChooseK, SingleBlobChoosesKOne) {
  // One diffuse blob: every k ≥ 2 silhouette is mediocre, so the k = 1
  // baseline score wins under the 90% rule (paper: grep_sp has one phase).
  Rng rng(43);
  Matrix pts = gaussian_blobs({{0, 0}}, 80, 1.0, rng);
  ChooseKResult r = choose_k(pts, rng);
  EXPECT_EQ(r.k, 1u);
}

TEST(ChooseK, RespectsMaxK) {
  Rng rng(47);
  Matrix pts = gaussian_blobs({{0, 0}, {10, 0}}, 10, 0.1, rng);
  ChooseKConfig cfg;
  cfg.max_k = 1;
  ChooseKResult r = choose_k(pts, rng, cfg);
  EXPECT_EQ(r.k, 1u);
  EXPECT_EQ(r.scores.size(), 1u);
}

TEST(FRegression, ScoresCorrelatedFeatureHighest) {
  Rng rng(51);
  const std::size_t n = 200;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.next_double();
    x.at(i, 0) = rng.next_double();            // noise
    x.at(i, 1) = y[i] + 0.05 * rng.next_gaussian();  // strong signal
    x.at(i, 2) = 0.5;                          // constant → score 0
  }
  const auto scores = f_regression(x, y);
  EXPECT_GT(scores[1], scores[0]);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);

  const auto top1 = top_k_indices(scores, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0], 1u);
}

TEST(FRegression, TopKDropsZeroScoresWhenPositiveOnly) {
  std::vector<double> scores{0.0, 5.0, 0.0, 2.0};
  const auto idx = top_k_indices(scores, 4, /*positive_only=*/true);
  EXPECT_EQ(idx, (std::vector<std::size_t>{1, 3}));
  const auto all = top_k_indices(scores, 4, /*positive_only=*/false);
  EXPECT_EQ(all.size(), 4u);
}

TEST(FRegression, OutputSortedAscendingForStableColumnSelection) {
  std::vector<double> scores{3.0, 9.0, 1.0, 7.0};
  const auto idx = top_k_indices(scores, 3);
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(ChooseK, ZeroMaxKClampsToOne) {
  // max_k = 0 used to leave the sweep scoring nothing (UB in the best-score
  // reduction); it must clamp up to a defined single-cluster sweep.
  Rng rng(61);
  Matrix pts = gaussian_blobs({{0, 0}, {10, 0}}, 10, 0.1, rng);
  ChooseKConfig cfg;
  cfg.max_k = 0;
  ChooseKResult r = choose_k(pts, rng, cfg);
  EXPECT_EQ(r.k, 1u);
  ASSERT_EQ(r.scores.size(), 1u);
  EXPECT_TRUE(std::isfinite(r.scores[0]));
}

TEST(ChooseK, FewerPointsThanMaxKClampsSweep) {
  // n = 1 and n = 2 points against the default max_k = 20: the sweep clamps
  // to the population instead of asking k-means for k > n.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}}) {
    Matrix pts(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      pts.at(i, 0) = static_cast<double>(i);
      pts.at(i, 1) = 1.0;
    }
    Rng rng(67 + n);
    ChooseKResult r = choose_k(pts, rng);
    EXPECT_GE(r.k, 1u);
    EXPECT_LE(r.k, n);
    EXPECT_EQ(r.scores.size(), n);
    for (double s : r.scores) EXPECT_TRUE(std::isfinite(s));
  }
}

TEST(ChooseK, AllIdenticalRowsCollapseToOneClusterWithoutNaN) {
  Matrix pts(12, 3);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    pts.at(i, 0) = 0.25;
    pts.at(i, 1) = 0.5;
    pts.at(i, 2) = 0.25;
  }
  Rng rng(71);
  ChooseKResult r = choose_k(pts, rng);
  EXPECT_EQ(r.k, 1u);
  for (double s : r.scores) {
    EXPECT_TRUE(std::isfinite(s)) << "silhouette must stay defined";
  }
}

TEST(Silhouette, AllIdenticalPointsScoreZeroNotNaN) {
  // Zero-variance geometry: a(i) = b(i) = 0 for every point; the guarded
  // denominator must yield 0, not 0/0.
  Matrix pts(10, 2);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    pts.at(i, 0) = 1.0;
    pts.at(i, 1) = 2.0;
  }
  std::vector<std::size_t> labels(10, 0);
  for (std::size_t i = 5; i < 10; ++i) labels[i] = 1;
  const double exact = exact_silhouette(pts, labels, 2, 1);
  const double sampled = sampled_silhouette(pts, labels, 2, 8, 13, 1);
  EXPECT_EQ(exact, 0.0);
  EXPECT_EQ(sampled, 0.0);
}

TEST(FRegression, ConstantTargetScoresEverythingZero) {
  // Zero-variance IPC (all-identical units): syy_centered = 0 must zero all
  // scores — the selection then comes back empty and the caller collapses
  // to a single phase — rather than dividing by it.
  Rng rng(73);
  const std::size_t n = 32;
  Matrix x(n, 2);
  std::vector<double> y(n, 1.25);
  for (std::size_t i = 0; i < n; ++i) {
    x.at(i, 0) = rng.next_double();
    x.at(i, 1) = rng.next_double();
  }
  for (double s : f_regression(x, y)) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(FRegression, SingleSurvivingColumnScoresDefined) {
  const std::size_t n = 16;
  Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<double>(i);
    x.at(i, 0) = 2.0 * y[i];  // perfectly correlated single feature
  }
  const auto scores = f_regression(x, y);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_TRUE(std::isfinite(scores[0]));
  EXPECT_GT(scores[0], 0.0);
  EXPECT_EQ(top_k_indices(scores, 5), (std::vector<std::size_t>{0}));
}

// Property: k-means inertia never increases when k grows (best-of restarts
// may fluctuate slightly, so allow a tiny tolerance).
class KMeansInertia : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KMeansInertia, InertiaNonIncreasingInK) {
  Rng rng(GetParam());
  Matrix pts = gaussian_blobs({{0, 0}, {5, 5}, {9, 1}}, 25, 0.8, rng);
  double prev = 1e300;
  for (std::size_t k = 1; k <= 6; ++k) {
    KMeansResult r = kmeans(pts, k, rng);
    EXPECT_LE(r.inertia, prev * 1.05) << "k=" << k;
    prev = r.inertia;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansInertia,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace simprof::stats
