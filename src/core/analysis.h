// One analysis path: the request→result layer every front-end shares.
//
// The CLI verbs, the daemon's request handlers and the estimator bench all
// decide the same things: the feature space phases are formed in, the
// stratified estimator, the selection drawn over the formed phases, how a
// sensitivity study trains and classifies, and what a measured sample
// estimates. This module decides each of them once.
// A front-end decodes its input (flags or SPRC frames), calls in here, and
// prints or encodes the result, so CLI/daemon agreement holds by
// construction (DESIGN.md §6k).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/lab.h"
#include "core/sampling.h"
#include "core/sensitivity.h"
#include "features/feature_mode.h"

namespace simprof::core {

/// Stratified estimator; the values are the SPRC wire encoding.
enum class Estimator : std::uint8_t {
  kNeyman = 0,    ///< simprof_sample
  kTwoPhase = 1,  ///< two_phase_sample
};

std::string_view to_string(Estimator e);  ///< "neyman" / "two-phase"
/// Inverse of to_string (also accepts "two_phase").
std::optional<Estimator> parse_estimator(std::string_view name);

/// SPRC selector decoding: ContractViolation (answered kBadRequest) for a
/// value outside the enum.
features::FeatureMode feature_mode_from_wire(std::uint8_t value);
Estimator estimator_from_wire(std::uint8_t value);

struct AnalysisOptions {
  features::FeatureMode features = features::FeatureMode::kFreq;
  Estimator estimator = Estimator::kNeyman;
  std::size_t threads = 0;  ///< formation workers (0 = global default)
};

/// Batch phase formation in the options' feature space.
PhaseModel analyze_phases(const ThreadProfile& profile,
                          const AnalysisOptions& options);

SamplePlan stratified_sample(const ThreadProfile& profile,
                             const PhaseModel& model, std::size_t n,
                             std::uint64_t seed, Estimator estimator);

/// A plan plus the unit ids of its points (index-aligned).
struct Selection {
  SamplePlan plan;
  std::vector<std::uint64_t> unit_ids;
};

/// Manifest quality figures as (name, value); lower is better for all.
using QualityFigures = std::vector<std::pair<std::string, double>>;

/// Sampling error and CI width of a plan against the profile's oracle,
/// under the per-mode and per-estimator names the report gate tracks.
QualityFigures plan_quality(const SamplePlan& plan,
                            const ThreadProfile& profile,
                            const AnalysisOptions& options);

/// Techniques by command-line name: simprof, srs, second, code,
/// systematic, smarts, simprof-sys.
std::optional<SamplingTechnique> parse_technique(std::string_view name);

/// Draw a plan; phase-based techniques form phases under `options` and
/// kSimProf draws with `options.estimator`.
SamplePlan sample_with(const ThreadProfile& profile,
                       SamplingTechnique technique, std::size_t n,
                       std::uint64_t seed, const AnalysisOptions& options);

struct ProfileAnalysisRequest {
  AnalysisOptions options;
  std::uint64_t seed = 1;    ///< sampling seed of the selection
  std::size_t sample_n = 0;  ///< selection size (0 = none)
};

struct ProfileAnalysis {
  PhaseModel model;
  /// Absent when sample_n is 0 or the profile has no units; the size is
  /// capped at the unit count.
  std::optional<Selection> selection;
};

/// Batch phase formation plus a stratified selection over the phases.
ProfileAnalysis analyze_profile(const ThreadProfile& profile,
                                const ProfileAnalysisRequest& request);

struct SensitivityStudy {
  BatchItem train;
  std::vector<BatchItem> references;
  std::vector<std::string> reference_names;
  AnalysisOptions options;
  double threshold = 0.10;
  std::size_t budget_n = 0;  ///< point-budget plan size over train (0 = none)
  std::uint64_t budget_seed = 1;
};

struct SensitivityAnalysis {
  PhaseModel model;
  SensitivityReport report;
  std::optional<SamplePlan> budget;
  QualityFigures budget_quality;
};

/// Train on `train_input` and classify every other Table II graph input of
/// `workload` (the `sensitivity` verb and Figs. 12/13).
SensitivityStudy graph_input_study(const std::string& workload,
                                   const std::string& train_input);

/// Profile the training item and the references as one lab batch, form
/// phases on the training profile and classify the references onto them.
SensitivityAnalysis analyze_sensitivity(WorkloadLab& lab,
                                        const SensitivityStudy& study);

/// The units a measure request selects: SMARTS-systematic, or a stratified
/// plan over the formed phases when `stratified` is set.
Selection measure_selection(const ThreadProfile& profile, std::size_t n,
                            std::uint64_t seed,
                            const std::optional<AnalysisOptions>& stratified);

struct MeasuredEstimate {
  double cpi = 0.0;
  double oracle_cpi = 0.0;
  double error = 0.0;  ///< relative to the oracle
  QualityFigures quality;
};

/// The selection's weights applied to the measured per-unit CPIs; nullopt
/// when a selected unit was not measured.
std::optional<MeasuredEstimate> measured_estimate(
    const Selection& selection, const ThreadProfile& profile,
    const std::vector<UnitRecord>& measured, const AnalysisOptions& options);

}  // namespace simprof::core
