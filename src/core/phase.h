// Phase formation (Section III-B): vectorize sampling-unit call stacks into
// method-frequency feature vectors, select the top-K methods most correlated
// with IPC (univariate linear-regression test), and cluster units into
// phases with k-means, choosing k by the silhouette rule. form_phases is
// the one entry point.
//
// Also implements the phase-homogeneity analysis of Figure 6 (population /
// weighted / maximum CoV of CPI) and the dominant-operation phase typing of
// Figure 10.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/profile.h"
#include "features/feature_mode.h"
#include "stats/descriptive.h"
#include "stats/kmeans.h"
#include "stats/matrix.h"
#include "stats/sparse.h"

namespace simprof::core {

struct PhaseFormationConfig {
  /// Feature space the units are vectorized into: method frequencies
  /// (historical default, bit-identical to pre-MAV models), memory-access
  /// vectors, or both (MAV columns first — see features/feature_mode.h).
  features::FeatureMode features = features::FeatureMode::kFreq;
  std::size_t top_k_features = 100;  ///< paper: K = 100
  /// Minimum univariate F-statistic for a method to survive selection.
  /// Methods whose frequency does not significantly correlate with IPC are
  /// eliminated (the paper drops the executor/task start-up methods this
  /// way); profiles where *no* method passes are performance-uniform and
  /// collapse to a single phase, like grep in the paper's Figure 9.
  double min_f_score = 2.0;
  /// Post-clustering refinement: phases whose CPI mean and deviation are
  /// within this relative threshold of each other are merged — stratifying
  /// over performance-identical strata buys nothing (same 10% equivalence
  /// rule as the paper's Eq. 6). 0 disables merging.
  double merge_threshold = 0.10;
  stats::ChooseKConfig choose_k;     ///< defaults: k ≤ 20, 90% rule
  std::uint64_t seed = 0x51eedULL;   ///< k-means seeding
  /// Worker threads for the clustering sweep (0 = global default from
  /// hardware_concurrency, overridable via the CLI --threads flag). Output
  /// is bit-identical for any value — see stats/kmeans.h.
  std::size_t threads = 0;
};

/// Trimmed-deviation policy for PhaseStats::trimmed_stddev_cpi. The trim
/// count per tail is explicit and total on the phase size:
///   n <  kTrimFloorUnits  → 0 (too few units to sacrifice any; the trimmed
///                             deviation falls back to the raw σ)
///   n >= kTrimFloorUnits  → max(1, n / 20)  (≈5% per tail, never zero)
/// The floor guarantees that once a phase has kTrimFloorUnits units, at
/// least one element per tail is always dropped — without it, every phase
/// under 20 units trimmed zero elements and the Eq. 6 comparisons silently
/// degraded to the outlier-dominated raw σ exactly where outliers hurt most.
inline constexpr std::size_t kTrimFloorUnits = 8;

/// Elements dropped from each tail for a phase of `count` units, per the
/// policy above.
std::size_t trimmed_tail_count(std::size_t count);

/// Per-phase CPI statistics (the paper's N_h, μ_h, σ_h, CoV_h).
struct PhaseStats {
  std::size_t count = 0;     ///< N_h — units in the phase
  double mean_cpi = 0.0;     ///< μ_h
  double stddev_cpi = 0.0;   ///< s_h (sample stddev, Eq. 5)
  /// Trimmed sample stddev (trimmed_tail_count elements per tail): every
  /// Eq. 6-style dispersion comparison — the input-sensitivity test AND the
  /// post-clustering phase merge — uses this, because raw σ is dominated by
  /// rare scheduling/migration outliers whose count fluctuates run to run,
  /// which would make those tests fire on noise rather than on genuine
  /// behaviour differences.
  double trimmed_stddev_cpi = 0.0;
  double cov = 0.0;          ///< s_h / μ_h
  double weight = 0.0;       ///< N_h / N
};

/// A fitted phase model: everything needed to sample (Section III-C) and to
/// classify units of other inputs (Section III-D). Self-contained — feature
/// identities are method *names*, so a model built on one profile can
/// classify profiles whose method tables differ.
struct PhaseModel {
  std::size_t k = 0;
  /// Feature space this model was fitted in; vectorize_unit/vectorize_units
  /// reproduce the same space when classifying other profiles.
  features::FeatureMode feature_mode = features::FeatureMode::kFreq;
  std::vector<std::string> feature_names;  ///< selected features, in order
  std::vector<jvm::OpKind> feature_kinds;
  stats::Matrix centers;                   ///< k × |features|
  std::vector<std::size_t> labels;         ///< per training unit
  std::vector<PhaseStats> phases;          ///< per phase
  std::vector<double> silhouette_scores;   ///< per candidate k (k = 1 first)

  /// Dominant operation type per phase, from center weights (Figure 10).
  std::vector<jvm::OpKind> phase_types;

  /// The training unit nearest each center (the CODE baseline's pick).
  std::vector<std::size_t> representative_units;
};

/// Full feature matrix (units × feature_space_cols(mode)), L1-row-
/// normalized. Dense reference form — the hot paths use the CSR builder
/// below and densify only selected columns; this stays as the equivalence
/// oracle in every feature mode.
stats::Matrix build_feature_matrix(
    const ThreadProfile& profile,
    features::FeatureMode mode = features::FeatureMode::kFreq);

/// The same matrix in CSR form, built directly from the unit records (a
/// unit touches a few dozen methods out of thousands, so the dense form is
/// ~99% zeros). Bitwise equivalent: to_dense() equals build_feature_matrix.
stats::SparseMatrix build_sparse_feature_matrix(
    const ThreadProfile& profile,
    features::FeatureMode mode = features::FeatureMode::kFreq);

/// Fit phases on a profile.
PhaseModel form_phases(const ThreadProfile& profile,
                       const PhaseFormationConfig& cfg = {});

/// Vectorize one unit into a model's feature space (L1-normalized over the
/// selected features; methods are matched by name).
std::vector<double> vectorize_unit(const PhaseModel& model,
                                   const ThreadProfile& profile,
                                   std::size_t unit_index);

/// Vectorize every unit of a profile into a model's feature space — the
/// batch form of vectorize_unit (one hoisted name→feature map, row blocks
/// on the thread pool; threads = 0 → global default). Row u equals
/// vectorize_unit(model, profile, u) bit for bit.
stats::Matrix vectorize_units(const PhaseModel& model,
                              const ThreadProfile& profile,
                              std::size_t threads = 0);

/// Figure 6: population / weighted / maximum CoV of CPI for a clustering.
stats::CovSummary cov_summary(const ThreadProfile& profile,
                              const PhaseModel& model);

/// Dominant non-framework OpKind per phase by snapshot-frame share (the
/// Figure 10 taxonomy; shuffle folds into IO).
std::vector<jvm::OpKind> classify_phase_types(
    const ThreadProfile& profile, const std::vector<std::size_t>& labels,
    std::size_t k);

/// Name of phase `phase`'s dominant method: the non-framework feature with
/// the largest center weight (the first on ties). None when the model has
/// no non-framework feature.
std::optional<std::string> dominant_method(const PhaseModel& model,
                                           std::size_t phase);

/// Merge phases whose CPI distributions are equivalent within `threshold`
/// (relative, Eq. 6-style). Rewrites centers/labels/phases in place; called
/// by form_phases and exposed for ablation studies.
void merge_equivalent_phases(PhaseModel& model, const ThreadProfile& profile,
                             double threshold);

/// Recompute per-phase stats for an arbitrary (profile, labels) pairing —
/// used by the input-sensitivity unit classification.
std::vector<PhaseStats> phase_stats_for(const ThreadProfile& profile,
                                        const std::vector<std::size_t>& labels,
                                        std::size_t k);

}  // namespace simprof::core
