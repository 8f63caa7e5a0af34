// The parallel phase-formation determinism contract: kmeans, choose_k,
// the silhouette variants, classify_units and form_phases must produce
// bit-identical results for threads = 1, 2 and hardware_concurrency on the
// same seed — per-k/per-restart fixed RNG streams plus chunk-ordered
// reductions make thread count invisible in the output.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/phase.h"
#include "core/profile.h"
#include "core/sensitivity.h"
#include "features/feature_mode.h"
#include "stats/feature_select.h"
#include "stats/kmeans.h"
#include "stats/silhouette.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace simprof {
namespace {

std::vector<std::size_t> thread_sweep() {
  std::vector<std::size_t> t{1, 2};
  const std::size_t hw = support::default_thread_count();
  if (hw > 2) t.push_back(hw);
  return t;
}

stats::Matrix clustered_points(std::size_t n, std::size_t d,
                               std::size_t clusters, std::uint64_t seed) {
  Rng rng(seed);
  stats::Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t j = 0; j < d; ++j) {
      m.at(i, j) =
          (j % clusters == c ? 1.0 : 0.1) + 0.05 * rng.next_gaussian();
    }
  }
  return m;
}

void expect_same_matrix(const stats::Matrix& a, const stats::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i], fb[i]) << "flat index " << i;  // bitwise, not NEAR
  }
}

TEST(ParallelDeterminism, KMeansIdenticalAcrossThreadCounts) {
  const stats::Matrix pts = clustered_points(300, 24, 4, 7);
  stats::KMeansConfig cfg;
  cfg.threads = 1;
  Rng rng1(99);
  const stats::KMeansResult base = stats::kmeans(pts, 5, rng1, cfg);
  for (std::size_t t : thread_sweep()) {
    cfg.threads = t;
    Rng rng(99);
    const stats::KMeansResult r = stats::kmeans(pts, 5, rng, cfg);
    EXPECT_EQ(r.labels, base.labels) << "threads=" << t;
    EXPECT_EQ(r.inertia, base.inertia) << "threads=" << t;
    EXPECT_EQ(r.iterations, base.iterations) << "threads=" << t;
    expect_same_matrix(r.centers, base.centers);
  }
}

TEST(ParallelDeterminism, ChooseKIdenticalAcrossThreadCounts) {
  const stats::Matrix pts = clustered_points(240, 20, 3, 11);
  stats::ChooseKConfig cfg;
  cfg.max_k = 8;
  cfg.threads = 1;
  Rng rng1(5);
  const stats::ChooseKResult base = stats::choose_k(pts, rng1, cfg);
  for (std::size_t t : thread_sweep()) {
    cfg.threads = t;
    Rng rng(5);
    const stats::ChooseKResult r = stats::choose_k(pts, rng, cfg);
    EXPECT_EQ(r.k, base.k) << "threads=" << t;
    EXPECT_EQ(r.scores, base.scores) << "threads=" << t;
    EXPECT_EQ(r.clustering.labels, base.clustering.labels) << "threads=" << t;
    expect_same_matrix(r.clustering.centers, base.clustering.centers);
  }
}

TEST(ParallelDeterminism, SilhouettesIdenticalAcrossThreadCounts) {
  const stats::Matrix pts = clustered_points(500, 16, 4, 13);
  stats::KMeansConfig kcfg;
  kcfg.threads = 1;
  Rng rng(21);
  const stats::KMeansResult r = stats::kmeans(pts, 4, rng, kcfg);
  const double exact1 = stats::exact_silhouette(pts, r.labels, 4, 1);
  const double sampl1 =
      stats::sampled_silhouette(pts, r.labels, 4, 100, 1234, 1);
  for (std::size_t t : thread_sweep()) {
    EXPECT_EQ(stats::exact_silhouette(pts, r.labels, 4, t), exact1);
    EXPECT_EQ(stats::sampled_silhouette(pts, r.labels, 4, 100, 1234, t),
              sampl1);
  }
}

TEST(ParallelDeterminism, FRegressionIdenticalAcrossThreadCounts) {
  // 2100 rows × 300 columns: the column-blocked kernel sees three blocks of
  // 128 and the row loop crosses the fixed 1024-row chunk grid twice, so
  // every fold boundary of the parallel decomposition is exercised.
  const stats::Matrix x = clustered_points(2100, 300, 5, 17);
  Rng rng(31);
  std::vector<double> y(x.rows());
  for (auto& v : y) v = rng.next_double(0.0, 2.0);
  const auto base = stats::f_regression(x, y, 1);
  for (std::size_t t : {2u, 4u, 8u}) {
    EXPECT_EQ(stats::f_regression(x, y, t), base) << "threads=" << t;
  }
}

core::ThreadProfile synthetic_profile(std::size_t units) {
  core::ThreadProfile p;
  for (int m = 0; m < 40; ++m) {
    p.method_names.push_back("m" + std::to_string(m));
    p.method_kinds.push_back(jvm::OpKind::kMap);
  }
  Rng rng(6);
  for (std::size_t i = 0; i < units; ++i) {
    core::UnitRecord u;
    u.unit_id = i;
    u.counters.instructions = 1'000'000;
    u.counters.cycles =
        1'000'000 + static_cast<std::uint64_t>(rng.next_below(2'000'000));
    // Sparse MAV so the mav/combined feature modes have real columns; some
    // units stay MAV-empty (compute-only).
    if (i % 5 != 4) {
      for (std::size_t b = 0; b < hw::kMavDim; ++b) {
        if (rng.next_bool(0.4)) u.mav.counts[b] = rng.next_below(4096);
      }
    }
    for (int j = 0; j < 6; ++j) {
      u.methods.push_back(static_cast<jvm::MethodId>((i + 7ull * j) % 40));
      u.counts.push_back(static_cast<std::uint32_t>(1 + rng.next_below(20)));
    }
    p.units.push_back(std::move(u));
  }
  return p;
}

TEST(ParallelDeterminism, FormPhasesIdenticalAcrossThreadCounts) {
  const core::ThreadProfile profile = synthetic_profile(400);
  core::PhaseFormationConfig cfg;
  cfg.threads = 1;
  const core::PhaseModel base = core::form_phases(profile, cfg);
  for (std::size_t t : thread_sweep()) {
    cfg.threads = t;
    const core::PhaseModel model = core::form_phases(profile, cfg);
    EXPECT_EQ(model.k, base.k) << "threads=" << t;
    EXPECT_EQ(model.labels, base.labels) << "threads=" << t;
    EXPECT_EQ(model.silhouette_scores, base.silhouette_scores)
        << "threads=" << t;
    EXPECT_EQ(model.feature_names, base.feature_names) << "threads=" << t;
    EXPECT_EQ(model.representative_units, base.representative_units)
        << "threads=" << t;
    expect_same_matrix(model.centers, base.centers);
  }
}

TEST(ParallelDeterminism, FormPhasesIdenticalAcrossThreadCountsEveryMode) {
  // The acceptance contract of the feature subsystem: for every feature
  // mode, thread count is invisible in the formed model, bitwise.
  const core::ThreadProfile profile = synthetic_profile(400);
  for (const auto mode :
       {features::FeatureMode::kFreq, features::FeatureMode::kMav,
        features::FeatureMode::kCombined}) {
    core::PhaseFormationConfig cfg;
    cfg.features = mode;
    cfg.threads = 1;
    const core::PhaseModel base = core::form_phases(profile, cfg);
    EXPECT_EQ(base.feature_mode, mode);
    for (std::size_t t : thread_sweep()) {
      cfg.threads = t;
      const core::PhaseModel model = core::form_phases(profile, cfg);
      EXPECT_EQ(model.k, base.k)
          << "mode=" << features::to_string(mode) << " threads=" << t;
      EXPECT_EQ(model.labels, base.labels)
          << "mode=" << features::to_string(mode) << " threads=" << t;
      EXPECT_EQ(model.silhouette_scores, base.silhouette_scores)
          << "mode=" << features::to_string(mode) << " threads=" << t;
      EXPECT_EQ(model.feature_names, base.feature_names)
          << "mode=" << features::to_string(mode) << " threads=" << t;
      EXPECT_EQ(model.representative_units, base.representative_units)
          << "mode=" << features::to_string(mode) << " threads=" << t;
      expect_same_matrix(model.centers, base.centers);
    }
  }
}

TEST(ParallelDeterminism, DenseAndSparseFeatureMatricesMatchEveryMode) {
  // The dense builder is the equivalence oracle for the CSR hot path —
  // bitwise, per mode, including the mode-specific column layouts.
  const core::ThreadProfile profile = synthetic_profile(150);
  for (const auto mode :
       {features::FeatureMode::kFreq, features::FeatureMode::kMav,
        features::FeatureMode::kCombined}) {
    const stats::Matrix dense = core::build_feature_matrix(profile, mode);
    const stats::SparseMatrix sparse =
        core::build_sparse_feature_matrix(profile, mode);
    ASSERT_EQ(sparse.cols(),
              features::feature_space_cols(mode, profile.num_methods()))
        << "mode=" << features::to_string(mode);
    expect_same_matrix(sparse.to_dense(), dense);
  }
}

TEST(ParallelDeterminism, ClassifyUnitsIdenticalAcrossThreadCounts) {
  const core::ThreadProfile train = synthetic_profile(300);
  const core::ThreadProfile ref = synthetic_profile(180);
  core::PhaseFormationConfig cfg;
  cfg.threads = 1;
  const core::PhaseModel model = core::form_phases(train, cfg);
  const auto base = core::classify_units(model, ref, 1);
  for (std::size_t t : thread_sweep()) {
    EXPECT_EQ(core::classify_units(model, ref, t), base) << "threads=" << t;
  }
}

TEST(SampledSilhouette, SeededSubsetDoesNotAliasPeriodicLabels) {
  // 5 well-separated one-hot-ish clusters laid out periodically (unit i in
  // cluster i % 5). The old deterministic stride of ⌈2000/400⌉ = 5 sampled
  // only cluster 0 — one non-empty cluster, silhouette 0. The seeded
  // random subset must see all clusters and score the separation high.
  const std::size_t n = 2000, clusters = 5;
  stats::Matrix pts(n, clusters);
  Rng rng(3);
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i % clusters;
    for (std::size_t j = 0; j < clusters; ++j) {
      pts.at(i, j) = (j == labels[i] ? 1.0 : 0.0) + 0.01 * rng.next_gaussian();
    }
  }
  const double s = stats::sampled_silhouette(pts, labels, clusters, 400);
  EXPECT_GT(s, 0.8);
  // Reproducible per seed; a different seed is still a valid estimate.
  EXPECT_EQ(s, stats::sampled_silhouette(pts, labels, clusters, 400));
  EXPECT_GT(stats::sampled_silhouette(pts, labels, clusters, 400, 777), 0.8);
}

}  // namespace
}  // namespace simprof
