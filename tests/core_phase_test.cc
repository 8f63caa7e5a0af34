// Unit tests for phase formation: feature vectorization, regression-based
// feature selection, k choice, per-phase stats, CoV summary and phase typing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/phase.h"
#include "support/assert.h"
#include "test_util.h"

namespace simprof::core {
namespace {

TEST(FeatureMatrix, RowNormalizedMethodFrequencies) {
  auto p = testing::synthetic_profile({{1, 1.0, 0.0, 1}});
  const auto m = build_feature_matrix(p);
  ASSERT_EQ(m.rows(), 1u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.25);  // framework method: 10 of 40
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.75);  // dominant method: 30 of 40
}

TEST(FormPhases, SeparatesTwoDistinctPhases) {
  auto p = testing::synthetic_profile(
      {{40, 0.5, 0.02, 1}, {40, 2.0, 0.05, 2}});
  const PhaseModel model = form_phases(p);
  EXPECT_EQ(model.k, 2u);
  // All units dominated by method 1 share a label, likewise method 2.
  const std::size_t l0 = model.labels[0];
  for (std::size_t u = 0; u < p.num_units(); ++u) {
    if (p.units[u].methods[1] == 1) {
      EXPECT_EQ(model.labels[u], l0);
    } else {
      EXPECT_NE(model.labels[u], l0);
    }
  }
  // Phase stats reflect the construction.
  double means[2] = {model.phases[0].mean_cpi, model.phases[1].mean_cpi};
  std::sort(means, means + 2);
  EXPECT_NEAR(means[0], 0.5, 0.05);
  EXPECT_NEAR(means[1], 2.0, 0.10);
  EXPECT_EQ(model.phases[0].count + model.phases[1].count, 80u);
  EXPECT_NEAR(model.phases[0].weight + model.phases[1].weight, 1.0, 1e-12);
}

TEST(FormPhases, UniformProfileCollapsesToOnePhase) {
  auto p = testing::synthetic_profile({{60, 1.0, 0.05, 1}});
  const PhaseModel model = form_phases(p);
  EXPECT_EQ(model.k, 1u);
}

TEST(FormPhases, MaxKTwentyByDefault) {
  std::vector<testing::SyntheticPhase> phases;
  for (jvm::MethodId m = 1; m <= 30; ++m) {
    phases.push_back({8, 0.3 + 0.11 * m, 0.01, m});
  }
  auto p = testing::synthetic_profile(phases);
  const PhaseModel model = form_phases(p);
  EXPECT_LE(model.k, 20u);
  EXPECT_EQ(model.silhouette_scores.size(), 20u);
}

TEST(FormPhases, TopKFeatureLimitRespected) {
  auto p = testing::synthetic_profile({{30, 0.5, 0.01, 1},
                                       {30, 1.5, 0.01, 2},
                                       {30, 2.5, 0.01, 3}});
  PhaseFormationConfig cfg;
  cfg.top_k_features = 2;
  const PhaseModel model = form_phases(p, cfg);
  EXPECT_LE(model.feature_names.size(), 2u);
}

TEST(FormPhases, EmptyProfileThrows) {
  ThreadProfile p;
  EXPECT_THROW(form_phases(p), ContractViolation);
}

TEST(FormPhases, RepresentativeUnitsBelongToTheirPhase) {
  auto p = testing::synthetic_profile({{25, 0.5, 0.05, 1}, {25, 2.0, 0.1, 2}});
  const PhaseModel model = form_phases(p);
  for (std::size_t h = 0; h < model.k; ++h) {
    EXPECT_EQ(model.labels[model.representative_units[h]], h);
  }
}

TEST(FormPhases, PhaseTypingUsesDominantNonFrameworkKind) {
  // Build a profile whose dominant method kinds differ per phase.
  ThreadProfile p;
  p.method_names = {"framework.Thread.run", "app.Mapper.map",
                    "app.Sorter.sort"};
  p.method_kinds = {jvm::OpKind::kFramework, jvm::OpKind::kMap,
                    jvm::OpKind::kSort};
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    UnitRecord u;
    u.unit_id = p.units.size();
    const bool sort_unit = (i % 2) == 0;
    const double cpi = sort_unit ? 1.8 + 0.02 * rng.next_gaussian()
                                 : 0.6 + 0.02 * rng.next_gaussian();
    u.counters.instructions = 1'000'000;
    u.counters.cycles = static_cast<std::uint64_t>(cpi * 1e6);
    u.methods = {0, sort_unit ? jvm::MethodId{2} : jvm::MethodId{1}};
    u.counts = {10, 30};
    p.units.push_back(std::move(u));
  }
  const PhaseModel model = form_phases(p);
  ASSERT_EQ(model.k, 2u);
  std::set<jvm::OpKind> kinds(model.phase_types.begin(),
                              model.phase_types.end());
  EXPECT_TRUE(kinds.contains(jvm::OpKind::kMap));
  EXPECT_TRUE(kinds.contains(jvm::OpKind::kSort));
}

TEST(DominantMethod, HeaviestNonFrameworkFeatureOfTheCenter) {
  PhaseModel model;
  model.k = 2;
  model.feature_names = {"framework.Executor.run", "app.Mapper.map",
                         "app.Sorter.sort"};
  model.feature_kinds = {jvm::OpKind::kFramework, jvm::OpKind::kMap,
                         jvm::OpKind::kSort};
  model.centers = stats::Matrix(2, 3);
  model.centers.at(0, 0) = 0.9;  // framework weight never wins
  model.centers.at(0, 1) = 0.06;
  model.centers.at(0, 2) = 0.04;
  model.centers.at(1, 1) = 0.2;
  model.centers.at(1, 2) = 0.2;  // ties go to the first feature
  EXPECT_EQ(dominant_method(model, 0), "app.Mapper.map");
  EXPECT_EQ(dominant_method(model, 1), "app.Mapper.map");
}

TEST(DominantMethod, AllFrameworkFeaturesYieldNoMethod) {
  PhaseModel model;
  model.k = 1;
  model.feature_names = {"framework.Executor.run", "framework.Task.run"};
  model.feature_kinds = {jvm::OpKind::kFramework, jvm::OpKind::kFramework};
  model.centers = stats::Matrix(1, 2);
  model.centers.at(0, 0) = 0.7;
  model.centers.at(0, 1) = 0.3;
  EXPECT_EQ(dominant_method(model, 0), std::nullopt);
  model.feature_names.clear();
  model.feature_kinds.clear();
  EXPECT_EQ(dominant_method(model, 0), std::nullopt);
}

TEST(CovSummary, WeightedBelowPopulationForSeparatedPhases) {
  auto p = testing::synthetic_profile(
      {{50, 0.5, 0.02, 1}, {50, 2.5, 0.02, 2}});
  const PhaseModel model = form_phases(p);
  const auto cov = cov_summary(p, model);
  EXPECT_GT(cov.population, 0.4);
  EXPECT_LT(cov.weighted, 0.2 * cov.population);
  EXPECT_LE(cov.weighted, cov.maximum + 1e-12);
}

TEST(VectorizeUnit, MatchesByMethodNameAndNormalizes) {
  auto p = testing::synthetic_profile({{10, 1.0, 0.0, 1}, {10, 2.0, 0.0, 2}});
  const PhaseModel model = form_phases(p);
  const auto v = vectorize_unit(model, p, 0);
  ASSERT_EQ(v.size(), model.feature_names.size());
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(VectorizeUnit, UnknownMethodsIgnored) {
  auto train = testing::synthetic_profile({{10, 1.0, 0.0, 1}});
  const PhaseModel model = form_phases(train);
  // A reference profile with a totally different method table.
  ThreadProfile ref;
  ref.method_names = {"other.M.x"};
  ref.method_kinds = {jvm::OpKind::kMap};
  UnitRecord u;
  u.counters.instructions = 100;
  u.counters.cycles = 100;
  u.methods = {0};
  u.counts = {5};
  ref.units.push_back(u);
  const auto v = vectorize_unit(model, ref, 0);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(PhaseStatsFor, HandlesEmptyPhases) {
  auto p = testing::synthetic_profile({{4, 1.0, 0.0, 1}});
  std::vector<std::size_t> labels(4, 0);
  const auto stats = phase_stats_for(p, labels, 3);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].count, 4u);
  EXPECT_EQ(stats[1].count, 0u);
  EXPECT_DOUBLE_EQ(stats[1].weight, 0.0);
}

TEST(PhaseStatsFor, LabelOutOfRangeThrows) {
  auto p = testing::synthetic_profile({{2, 1.0, 0.0, 1}});
  std::vector<std::size_t> labels{0, 5};
  EXPECT_THROW(phase_stats_for(p, labels, 2), ContractViolation);
}

TEST(FormPhases, TinyProfilesClampTheKSweep) {
  // Regression: profiles with fewer units than the default k sweep's max_k
  // (n = 1, 2 and max_k − 1) must form a defined model, not abort.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{19}}) {
    auto p = testing::synthetic_profile({{n, 1.0, 0.05, 1}});
    const PhaseModel model = form_phases(p);
    EXPECT_GE(model.k, 1u) << "n=" << n;
    EXPECT_LE(model.k, n) << "n=" << n;
    EXPECT_EQ(model.labels.size(), n);
    EXPECT_EQ(model.phases.size(), model.k);
    ASSERT_EQ(model.representative_units.size(), model.k);
    for (std::size_t u : model.representative_units) EXPECT_LT(u, n);
  }
}

TEST(TrimmedTailCount, ExplicitPolicy) {
  // Below the floor: nothing trimmed. At and above: never zero, ≈5%/tail.
  EXPECT_EQ(trimmed_tail_count(0), 0u);
  EXPECT_EQ(trimmed_tail_count(kTrimFloorUnits - 1), 0u);
  EXPECT_EQ(trimmed_tail_count(kTrimFloorUnits), 1u);
  EXPECT_EQ(trimmed_tail_count(19), 1u);
  EXPECT_EQ(trimmed_tail_count(20), 1u);
  EXPECT_EQ(trimmed_tail_count(40), 2u);
  EXPECT_EQ(trimmed_tail_count(100), 5u);
}

/// A two-method profile whose unit CPIs are exactly `cpis` — the fixture
/// for pinning trimmed-deviation and Eq. 6 merge behaviour.
ThreadProfile profile_from_cpis(const std::vector<double>& cpis) {
  ThreadProfile p;
  p.method_names = {"m0", "m1"};
  p.method_kinds = {jvm::OpKind::kFramework, jvm::OpKind::kMap};
  for (std::size_t i = 0; i < cpis.size(); ++i) {
    UnitRecord u;
    u.unit_id = i;
    u.counters.instructions = 1'000'000;
    u.counters.cycles = static_cast<std::uint64_t>(cpis[i] * 1'000'000.0);
    u.methods = {jvm::MethodId{0}, jvm::MethodId{1}};
    u.counts = {10, 30};
    p.units.push_back(std::move(u));
  }
  return p;
}

TEST(PhaseStatsFor, SmallPhaseTrimsAtLeastOnePerTailAtTheFloor) {
  // Exactly kTrimFloorUnits units, one outlier: the trim must drop one per
  // tail, so the trimmed deviation collapses to 0 while the raw σ does not.
  std::vector<double> cpis(kTrimFloorUnits, 1.0);
  cpis.back() = 2.0;
  const auto p = profile_from_cpis(cpis);
  const auto stats =
      phase_stats_for(p, std::vector<std::size_t>(cpis.size(), 0), 1);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0].stddev_cpi, 0.1);
  EXPECT_DOUBLE_EQ(stats[0].trimmed_stddev_cpi, 0.0);

  // One unit below the floor the trim is zero and trimmed == raw exactly.
  cpis.pop_back();
  const auto q = profile_from_cpis(cpis);
  const auto small =
      phase_stats_for(q, std::vector<std::size_t>(cpis.size(), 0), 1);
  EXPECT_DOUBLE_EQ(small[0].trimmed_stddev_cpi, small[0].stddev_cpi);
}

TEST(MergeEquivalentPhases, SmallPhaseOutlierDoesNotBlockEq6Merge) {
  // Two performance-identical strata of 20 units each; phase 0 carries one
  // scheduling-outlier unit that inflates its *raw* σ far beyond the 10%
  // equivalence band. The Eq. 6 comparison runs on the trimmed deviation,
  // so the phases still merge (the raw comparison used to keep them apart
  // and over-stratify the sample).
  std::vector<double> cpis;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < 20; ++i) {
    cpis.push_back(i + 1 == 20 ? 2.0 : 1.0);  // one outlier in phase 0
    labels.push_back(0);
  }
  for (std::size_t i = 0; i < 20; ++i) {
    cpis.push_back(i % 2 == 0 ? 0.98 : 1.02);
    labels.push_back(1);
  }
  const auto p = profile_from_cpis(cpis);

  PhaseModel model;
  model.k = 2;
  model.labels = labels;
  model.centers = stats::Matrix(2, 1);
  model.centers.at(0, 0) = 0.0;
  model.centers.at(1, 0) = 1.0;
  model.phases = phase_stats_for(p, labels, 2);

  // Precondition: the raw deviations genuinely disagree beyond threshold —
  // otherwise this fixture would pass under the old buggy comparison too.
  const double raw0 = model.phases[0].stddev_cpi;
  const double raw1 = model.phases[1].stddev_cpi;
  ASSERT_GT(std::abs(raw0 - raw1), 0.10 * std::max(raw0, raw1));

  merge_equivalent_phases(model, p, 0.10);
  EXPECT_EQ(model.k, 1u);
  EXPECT_EQ(model.phases.size(), 1u);
  EXPECT_EQ(model.phases[0].count, 40u);
  for (std::size_t l : model.labels) EXPECT_EQ(l, 0u);
}

}  // namespace
}  // namespace simprof::core
