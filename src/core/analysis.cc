#include "core/analysis.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "data/catalog.h"
#include "support/assert.h"

namespace simprof::core {

namespace {

Selection select(const ThreadProfile& profile, SamplePlan plan) {
  Selection s;
  for (const SimulationPoint& pt : plan.points) {
    s.unit_ids.push_back(profile.units[pt.unit_index].unit_id);
  }
  s.plan = std::move(plan);
  return s;
}

/// Figures of an estimate with relative error `error` drawn by `plan`. The
/// generic CI width describes the plan's own estimate, so a measured
/// estimate leaves it out.
QualityFigures estimate_quality(const SamplePlan& plan, double error,
                                const AnalysisOptions& options,
                                bool with_ci_width) {
  QualityFigures q{{"sampling_error_frac", error}};
  const bool has_ci = plan.estimated_cpi > 0.0 && plan.ci.margin > 0.0;
  const double width = has_ci ? plan.ci.margin / plan.estimated_cpi : 0.0;
  if (has_ci && with_ci_width) q.emplace_back("ci_rel_width", width);
  if (options.features != features::FeatureMode::kFreq) {
    q.emplace_back("mav_sampling_error_frac", error);
  }
  if (options.estimator == Estimator::kTwoPhase && has_ci) {
    q.emplace_back("two_phase_ci_rel_width", width);
  }
  return q;
}

}  // namespace

std::string_view to_string(Estimator e) {
  return e == Estimator::kTwoPhase ? "two-phase" : "neyman";
}

std::optional<Estimator> parse_estimator(std::string_view name) {
  if (name == "neyman") return Estimator::kNeyman;
  if (name == "two-phase" || name == "two_phase") return Estimator::kTwoPhase;
  return std::nullopt;
}

features::FeatureMode feature_mode_from_wire(std::uint8_t value) {
  if (value > static_cast<std::uint8_t>(features::FeatureMode::kCombined)) {
    throw ContractViolation("profile request: unknown feature mode " +
                            std::to_string(value));
  }
  return static_cast<features::FeatureMode>(value);
}

Estimator estimator_from_wire(std::uint8_t value) {
  if (value > static_cast<std::uint8_t>(Estimator::kTwoPhase)) {
    throw ContractViolation("profile request: unknown estimator " +
                            std::to_string(value));
  }
  return static_cast<Estimator>(value);
}

PhaseModel analyze_phases(const ThreadProfile& profile,
                          const AnalysisOptions& options) {
  PhaseFormationConfig cfg;
  cfg.features = options.features;
  cfg.threads = options.threads;
  return form_phases(profile, cfg);
}

SamplePlan stratified_sample(const ThreadProfile& profile,
                             const PhaseModel& model, std::size_t n,
                             std::uint64_t seed, Estimator estimator) {
  return estimator == Estimator::kTwoPhase
             ? two_phase_sample(profile, model, n, seed)
             : simprof_sample(profile, model, n, seed);
}

QualityFigures plan_quality(const SamplePlan& plan,
                            const ThreadProfile& profile,
                            const AnalysisOptions& options) {
  return estimate_quality(plan, relative_error(plan, profile), options, true);
}

std::optional<SamplingTechnique> parse_technique(std::string_view name) {
  using T = SamplingTechnique;
  static constexpr std::pair<std::string_view, T> kNames[] = {
      {"simprof", T::kSimProf},   {"srs", T::kSrs},
      {"second", T::kSecond},     {"code", T::kCode},
      {"systematic", T::kSystematic}, {"smarts", T::kSmarts},
      {"simprof-sys", T::kSimProfSystematic}};
  for (const auto& [n, t] : kNames) {
    if (n == name) return t;
  }
  return std::nullopt;
}

SamplePlan sample_with(const ThreadProfile& profile,
                       SamplingTechnique technique, std::size_t n,
                       std::uint64_t seed, const AnalysisOptions& options) {
  using T = SamplingTechnique;
  switch (technique) {
    case T::kSrs: return srs_sample(profile, n, seed);
    case T::kSecond: return second_sample(profile, 0.1, 2.0);
    case T::kSystematic: return systematic_sample(profile, n, seed);
    case T::kSmarts: return smarts_sample(profile, n, seed);
    default: break;
  }
  const PhaseModel model = analyze_phases(profile, options);
  switch (technique) {
    case T::kCode: return code_sample(profile, model);
    case T::kSimProfSystematic:
      return simprof_systematic_sample(profile, model, n, seed);
    case T::kSimProfTwoPhase:
      return stratified_sample(profile, model, n, seed, Estimator::kTwoPhase);
    default:
      return stratified_sample(profile, model, n, seed, options.estimator);
  }
}

ProfileAnalysis analyze_profile(const ThreadProfile& profile,
                                const ProfileAnalysisRequest& request) {
  ProfileAnalysis out;
  out.model = analyze_phases(profile, request.options);
  if (request.sample_n > 0 && profile.num_units() > 0) {
    out.selection = select(
        profile, stratified_sample(profile, out.model,
                                   std::min(request.sample_n,
                                            profile.num_units()),
                                   request.seed, request.options.estimator));
  }
  return out;
}

SensitivityStudy graph_input_study(const std::string& workload,
                                   const std::string& train_input) {
  SensitivityStudy study;
  study.train = {workload, train_input, {}};
  for (const auto& entry : data::snap_catalog()) {
    if (entry.name == train_input) continue;
    study.references.push_back({workload, entry.name, {}});
    study.reference_names.push_back(entry.name);
  }
  return study;
}

SensitivityAnalysis analyze_sensitivity(WorkloadLab& lab,
                                        const SensitivityStudy& study) {
  // One batch: misses simulate concurrently, hits decode alongside them.
  std::vector<BatchItem> items{study.train};
  items.insert(items.end(), study.references.begin(), study.references.end());
  const std::vector<LabRun> runs = lab.run_batch(items);
  const ThreadProfile& train = runs.front().profile;

  SensitivityAnalysis out;
  out.model = analyze_phases(train, study.options);
  std::vector<const ThreadProfile*> refs;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    refs.push_back(&runs[i].profile);
  }
  out.report = input_sensitivity_test(out.model, refs, study.reference_names,
                                      study.threshold);
  if (study.budget_n > 0) {
    out.budget = stratified_sample(train, out.model, study.budget_n,
                                   study.budget_seed, study.options.estimator);
    out.budget_quality = plan_quality(*out.budget, train, study.options);
  }
  return out;
}

Selection measure_selection(const ThreadProfile& profile, std::size_t n,
                            std::uint64_t seed,
                            const std::optional<AnalysisOptions>& stratified) {
  if (!stratified) return select(profile, smarts_sample(profile, n, seed));
  return select(profile,
                stratified_sample(profile, analyze_phases(profile, *stratified),
                                  n, seed, stratified->estimator));
}

std::optional<MeasuredEstimate> measured_estimate(
    const Selection& selection, const ThreadProfile& profile,
    const std::vector<UnitRecord>& measured, const AnalysisOptions& options) {
  if (selection.plan.points.empty()) return std::nullopt;
  std::map<std::uint64_t, double> cpi_of;
  for (const UnitRecord& u : measured) cpi_of[u.unit_id] = u.cpi();
  MeasuredEstimate e;
  for (std::size_t i = 0; i < selection.unit_ids.size(); ++i) {
    const auto it = cpi_of.find(selection.unit_ids[i]);
    if (it == cpi_of.end()) return std::nullopt;
    e.cpi += selection.plan.points[i].weight * it->second;
  }
  e.oracle_cpi = profile.oracle_cpi();
  e.error = e.oracle_cpi > 0.0 ? std::abs(e.cpi - e.oracle_cpi) / e.oracle_cpi
                               : 0.0;
  e.quality = estimate_quality(selection.plan, e.error, options, false);
  return e;
}

}  // namespace simprof::core
