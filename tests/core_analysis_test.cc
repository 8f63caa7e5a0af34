// The shared analysis layer (core/analysis.h): the batch path equals
// form_phases plus the sampler it wraps in every feature mode × estimator
// cell, its labels and selections are pinned, the SPRC selector decoding
// rejects out-of-range wire values, and the measured estimate applies a
// selection's weights to measured CPIs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "support/assert.h"
#include "test_util.h"

namespace simprof::core {
namespace {

constexpr features::FeatureMode kModes[] = {features::FeatureMode::kFreq,
                                            features::FeatureMode::kMav,
                                            features::FeatureMode::kCombined};
constexpr Estimator kEstimators[] = {Estimator::kNeyman, Estimator::kTwoPhase};

ThreadProfile fixture() {
  return testing::synthetic_profile(
      {{70, 0.5, 0.02, 1}, {70, 2.0, 0.05, 2}, {70, 1.2, 0.03, 3}});
}

void expect_same_plan(const SamplePlan& a, const SamplePlan& b) {
  EXPECT_EQ(a.technique, b.technique);
  EXPECT_EQ(a.estimated_cpi, b.estimated_cpi);
  EXPECT_EQ(a.standard_error, b.standard_error);
  EXPECT_EQ(a.ci.margin, b.ci.margin);
  EXPECT_EQ(a.allocation, b.allocation);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].unit_index, b.points[i].unit_index) << "point " << i;
    EXPECT_EQ(a.points[i].phase, b.points[i].phase) << "point " << i;
    EXPECT_EQ(a.points[i].weight, b.points[i].weight) << "point " << i;
  }
}

std::vector<std::string> names(const QualityFigures& q) {
  std::vector<std::string> out;
  for (const auto& [name, value] : q) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Analysis, BatchEqualsFormPhasesPlusSamplerInEveryCell) {
  const ThreadProfile p = fixture();
  for (const auto mode : kModes) {
    for (const auto est : kEstimators) {
      SCOPED_TRACE(std::string(features::to_string(mode)) + "|" +
                   std::string(to_string(est)));
      ProfileAnalysisRequest req;
      req.options.features = mode;
      req.options.estimator = est;
      req.seed = 7;
      req.sample_n = 20;
      const ProfileAnalysis got = analyze_profile(p, req);

      PhaseFormationConfig pcfg;
      pcfg.features = mode;
      const PhaseModel model = form_phases(p, pcfg);
      EXPECT_EQ(got.model.k, model.k);
      EXPECT_EQ(got.model.labels, model.labels);
      EXPECT_EQ(got.model.feature_names, model.feature_names);
      const SamplePlan want = est == Estimator::kTwoPhase
                                  ? two_phase_sample(p, model, 20, 7)
                                  : simprof_sample(p, model, 20, 7);
      ASSERT_TRUE(got.selection.has_value());
      expect_same_plan(got.selection->plan, want);
      ASSERT_EQ(got.selection->unit_ids.size(), want.points.size());
      for (std::size_t i = 0; i < want.points.size(); ++i) {
        EXPECT_EQ(got.selection->unit_ids[i],
                  p.units[want.points[i].unit_index].unit_id);
      }
    }
  }
}

TEST(Analysis, NoSampleSizeMeansNoSelection) {
  ProfileAnalysisRequest req;
  EXPECT_FALSE(analyze_profile(fixture(), req).selection.has_value());
}

// What a profile request outputs: the final labels, the selected unit ids
// and the estimate bits, per feature mode and estimator, so a change to any
// batch output shows here.
TEST(Analysis, FinalLabelsAndSelectionPinned) {
  const ThreadProfile p = fixture();
  struct Pin {
    features::FeatureMode mode;
    Estimator estimator;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {features::FeatureMode::kFreq, Estimator::kNeyman,
       2648836864805793592ULL},
      {features::FeatureMode::kMav, Estimator::kNeyman,
       743762642745468209ULL},
      {features::FeatureMode::kCombined, Estimator::kNeyman,
       1905157898179094909ULL},
      {features::FeatureMode::kFreq, Estimator::kTwoPhase,
       5693445878089966002ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(features::to_string(pin.mode)) + "|" +
                 std::string(to_string(pin.estimator)));
    ProfileAnalysisRequest req;
    req.options.features = pin.mode;
    req.options.estimator = pin.estimator;
    req.seed = 11;
    req.sample_n = 8;
    const ProfileAnalysis got = analyze_profile(p, req);

    std::uint64_t h = testing::kFnv1aOffset;
    h = testing::fnv1a_mix(h, got.model.k);
    for (const std::size_t label : got.model.labels) {
      h = testing::fnv1a_mix(h, label);
    }
    ASSERT_TRUE(got.selection.has_value());
    for (const std::uint64_t id : got.selection->unit_ids) {
      h = testing::fnv1a_mix(h, id);
    }
    h = testing::fnv1a_mix(
        h, std::bit_cast<std::uint64_t>(got.selection->plan.estimated_cpi));
    EXPECT_EQ(h, pin.digest);
  }
}

TEST(Analysis, WireSelectorsRejectOutOfRangeValues) {
  EXPECT_EQ(feature_mode_from_wire(0), features::FeatureMode::kFreq);
  EXPECT_EQ(feature_mode_from_wire(1), features::FeatureMode::kMav);
  EXPECT_EQ(feature_mode_from_wire(2), features::FeatureMode::kCombined);
  EXPECT_THROW(feature_mode_from_wire(3), ContractViolation);
  EXPECT_THROW(feature_mode_from_wire(255), ContractViolation);
  EXPECT_EQ(estimator_from_wire(0), Estimator::kNeyman);
  EXPECT_EQ(estimator_from_wire(1), Estimator::kTwoPhase);
  EXPECT_THROW(estimator_from_wire(2), ContractViolation);
  EXPECT_THROW(estimator_from_wire(255), ContractViolation);
}

TEST(Analysis, SelectorNamesRoundTrip) {
  for (const auto est : kEstimators) {
    EXPECT_EQ(parse_estimator(to_string(est)), est);
  }
  EXPECT_EQ(parse_estimator("two_phase"), Estimator::kTwoPhase);
  EXPECT_FALSE(parse_estimator("bogus").has_value());
  EXPECT_EQ(parse_technique("simprof"), SamplingTechnique::kSimProf);
  EXPECT_EQ(parse_technique("simprof-sys"),
            SamplingTechnique::kSimProfSystematic);
  EXPECT_EQ(parse_technique("smarts"), SamplingTechnique::kSmarts);
  EXPECT_FALSE(parse_technique("bogus").has_value());
}

TEST(Analysis, TechniquesDispatchToTheirSamplers) {
  const ThreadProfile p = fixture();
  expect_same_plan(sample_with(p, SamplingTechnique::kSrs, 10, 5, {}),
                   srs_sample(p, 10, 5));
  expect_same_plan(sample_with(p, SamplingTechnique::kSmarts, 10, 5, {}),
                   smarts_sample(p, 10, 5));
  AnalysisOptions two_phase;
  two_phase.estimator = Estimator::kTwoPhase;
  const SamplePlan plan =
      sample_with(p, SamplingTechnique::kSimProf, 10, 5, two_phase);
  EXPECT_EQ(plan.technique, SamplingTechnique::kSimProfTwoPhase);
  expect_same_plan(plan, two_phase_sample(p, form_phases(p), 10, 5));
}

TEST(Analysis, PlanQualityNamesFollowModeAndEstimator) {
  const ThreadProfile p = fixture();
  const PhaseModel model = form_phases(p);
  const SamplePlan plan = simprof_sample(p, model, 20, 1);
  ASSERT_GT(plan.ci.margin, 0.0);
  EXPECT_EQ(names(plan_quality(plan, p, {})),
            (std::vector<std::string>{"ci_rel_width", "sampling_error_frac"}));
  AnalysisOptions mav_two_phase;
  mav_two_phase.features = features::FeatureMode::kCombined;
  mav_two_phase.estimator = Estimator::kTwoPhase;
  EXPECT_EQ(names(plan_quality(plan, p, mav_two_phase)),
            (std::vector<std::string>{"ci_rel_width", "mav_sampling_error_frac",
                                      "sampling_error_frac",
                                      "two_phase_ci_rel_width"}));
}

TEST(Analysis, MeasuredEstimateWeightsMeasuredCpis) {
  const ThreadProfile p = fixture();
  AnalysisOptions options;
  options.features = features::FeatureMode::kMav;
  const Selection sel = measure_selection(p, 12, 3, options);
  ASSERT_FALSE(sel.unit_ids.empty());

  // Measuring the oracle's own records reproduces the plan's estimate.
  std::vector<UnitRecord> measured;
  for (const std::uint64_t id : sel.unit_ids) measured.push_back(p.units[id]);
  const auto est = measured_estimate(sel, p, measured, options);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->cpi, sel.plan.estimated_cpi, 1e-12);
  EXPECT_EQ(est->oracle_cpi, p.oracle_cpi());
  EXPECT_NEAR(est->error, relative_error(sel.plan, p), 1e-12);
  EXPECT_EQ(names(est->quality),
            (std::vector<std::string>{"mav_sampling_error_frac",
                                      "sampling_error_frac"}));

  // A selected unit that was not measured yields no estimate.
  measured.pop_back();
  EXPECT_FALSE(measured_estimate(sel, p, measured, options).has_value());

  // Without stratified options the selection is SMARTS-systematic.
  expect_same_plan(measure_selection(p, 12, 3, std::nullopt).plan,
                   smarts_sample(p, 12, 3));
}

}  // namespace
}  // namespace simprof::core
