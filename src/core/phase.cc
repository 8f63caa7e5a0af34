#include "core/phase.h"

#include <algorithm>
#include <array>
#include <span>
#include <unordered_map>

#include "obs/obs.h"
#include "stats/feature_select.h"
#include "support/assert.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace simprof::core {
namespace {

constexpr std::size_t kNoFeature = static_cast<std::size_t>(-1);

/// Model feature space decomposed for classification: method features are
/// matched by name (the stable identity across profiles with different
/// method tables), MAV features by their fixed column index.
struct FeatureMaps {
  std::unordered_map<std::string_view, std::size_t> method_of;
  std::array<std::size_t, hw::kMavDim> mav_of{};

  explicit FeatureMaps(const PhaseModel& model) {
    mav_of.fill(kNoFeature);
    method_of.reserve(model.feature_names.size());
    for (std::size_t f = 0; f < model.feature_names.size(); ++f) {
      if (model.feature_mode != features::FeatureMode::kFreq) {
        if (auto mc = features::mav_feature_index(model.feature_names[f])) {
          mav_of[*mc] = f;
          continue;
        }
      }
      method_of.emplace(model.feature_names[f], f);
    }
  }
};

/// Accumulate one unit's raw per-entry feature values into `v` (sized to the
/// model's feature space) and L1-normalize over the touched features — the
/// same per-entry values unit_feature_entries stores, restricted to the
/// selection, which is what makes classification agree with training in
/// every mode (L1 normalization commutes with column selection).
void accumulate_unit(const PhaseModel& model, const ThreadProfile& profile,
                     const UnitRecord& rec, const FeatureMaps& maps,
                     std::span<double> v,
                     std::vector<std::uint32_t>& cols_scratch,
                     std::vector<double>& vals_scratch) {
  const auto mode = model.feature_mode;
  double sum = 0.0;
  if (mode != features::FeatureMode::kMav) {
    double total = 0.0;
    if (mode == features::FeatureMode::kCombined) {
      for (const std::uint32_t c : rec.counts) {
        total += static_cast<double>(c);
      }
    }
    for (std::size_t i = 0; i < rec.methods.size(); ++i) {
      const auto& name = profile.method_names[rec.methods[i]];
      const auto it = maps.method_of.find(name);
      if (it == maps.method_of.end()) continue;
      double val = static_cast<double>(rec.counts[i]);
      if (mode == features::FeatureMode::kCombined) {
        if (total <= 0.0) continue;
        val /= total;
      }
      v[it->second] += val;
      sum += val;
    }
  }
  if (mode != features::FeatureMode::kFreq) {
    cols_scratch.clear();
    vals_scratch.clear();
    features::append_mav_entries(rec.mav, 0, cols_scratch, vals_scratch);
    for (std::size_t i = 0; i < cols_scratch.size(); ++i) {
      const std::size_t f = maps.mav_of[cols_scratch[i]];
      if (f == kNoFeature) continue;
      v[f] += vals_scratch[i];
      sum += vals_scratch[i];
    }
  }
  if (sum > 0.0) {
    for (double& x : v) x /= sum;
  }
}

/// One unit's raw CSR row in the chosen feature space. Under kFreq:
/// method-id/count pairs sorted by method id with duplicate ids collapsed
/// last-entry-wins — the semantics of assigning the entries in order, and
/// bitwise the historical layout. Under kMav/kCombined the
/// block-normalized MAV entries come first at columns [0, hw::kMavDim)
/// (features::append_mav_entries) and kCombined method entries follow at
/// +kMavDim, scaled to count/total so each unit's method block carries mass
/// 1 like each MAV block. Shared by the dense and CSR builders, so both
/// store bitwise the same entries. Output lands in `cols`/`vals` (cleared
/// first); `num_methods` bounds the ids.
void unit_feature_entries(const UnitRecord& rec, std::size_t num_methods,
                          std::vector<std::uint32_t>& cols,
                          std::vector<double>& vals,
                          features::FeatureMode mode) {
  cols.clear();
  vals.clear();
  // MAV entries first (fixed columns [0, kMavDim) under kMav/kCombined),
  // method columns, when present, above them.
  if (mode != features::FeatureMode::kFreq) {
    features::append_mav_entries(rec.mav, 0, cols, vals);
    if (mode == features::FeatureMode::kMav) return;
  }
  const auto offset =
      static_cast<std::uint32_t>(features::method_col_offset(mode));
  std::vector<std::pair<std::uint32_t, double>> entries;
  entries.reserve(rec.methods.size());
  for (std::size_t i = 0; i < rec.methods.size(); ++i) {
    SIMPROF_EXPECTS(rec.methods[i] < num_methods,
                    "method id outside profile table");
    entries.emplace_back(offset + rec.methods[i],
                         static_cast<double>(rec.counts[i]));
  }
  // Collected records are sorted already; synthetic test profiles may not
  // be. Stable sort + last-entry-wins matches the dense builder's
  // assignment semantics exactly.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const std::size_t method_begin = cols.size();
  for (const auto& [c, v] : entries) {
    if (cols.size() > method_begin && cols.back() == c) {
      vals.back() = v;
    } else {
      cols.push_back(c);
      vals.push_back(v);
    }
  }
  if (mode == features::FeatureMode::kCombined) {
    // Scale the deduplicated method counts to count/total so the method
    // block carries mass 1 per unit, like each MAV block — the same
    // per-block balance the final L1 row normalization preserves.
    double total = 0.0;
    for (std::size_t i = method_begin; i < vals.size(); ++i) total += vals[i];
    if (total > 0.0) {
      for (std::size_t i = method_begin; i < vals.size(); ++i) {
        vals[i] /= total;
      }
    }
  }
}

}  // namespace

stats::Matrix build_feature_matrix(const ThreadProfile& profile,
                                   features::FeatureMode mode) {
  stats::Matrix m(profile.num_units(),
                  features::feature_space_cols(mode, profile.num_methods()));
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
  for (std::size_t u = 0; u < profile.num_units(); ++u) {
    unit_feature_entries(profile.units[u], profile.num_methods(), cols, vals,
                         mode);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      m.at(u, cols[i]) = vals[i];
    }
  }
  m.normalize_rows_l1();
  return m;
}

stats::SparseMatrix build_sparse_feature_matrix(const ThreadProfile& profile,
                                                features::FeatureMode mode) {
  stats::SparseMatrix m(
      profile.num_units(),
      features::feature_space_cols(mode, profile.num_methods()));
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
  for (std::size_t u = 0; u < profile.num_units(); ++u) {
    unit_feature_entries(profile.units[u], profile.num_methods(), cols, vals,
                         mode);
    m.append_row(cols, vals);
  }
  m.normalize_rows_l1();
  return m;
}

PhaseModel form_phases(const ThreadProfile& profile,
                       const PhaseFormationConfig& cfg) {
  SIMPROF_EXPECTS(profile.num_units() > 0, "cannot form phases of nothing");
  // 1. Vectorize call stacks in CSR form (full feature space,
  // row-normalized); the dense form only ever materializes for the selected
  // top-K columns.
  const stats::SparseMatrix sparse =
      build_sparse_feature_matrix(profile, cfg.features);
  obs::ObsSpan span("phase.form_phases", {{"units", profile.num_units()},
                                          {"methods", profile.num_methods()}});
  static obs::Counter& formations =
      obs::metrics().counter("phase.formations");
  formations.increment();

  // 2. Univariate linear-regression feature selection against IPC, straight
  // off the sparse matrix.
  std::vector<double> ipc(profile.num_units());
  for (std::size_t u = 0; u < profile.num_units(); ++u) {
    ipc[u] = profile.units[u].ipc();
  }
  std::vector<double> scores = stats::f_regression(sparse, ipc, cfg.threads);
  for (double& v : scores) {
    if (v < cfg.min_f_score) v = 0.0;  // insignificant → eliminated
  }
  const std::vector<std::size_t> selected =
      stats::top_k_indices(scores, cfg.top_k_features);

  PhaseModel model;
  model.feature_mode = cfg.features;
  if (selected.empty()) {
    // No method's frequency correlates with performance: the run is
    // performance-uniform and forms a single phase (grep in Figure 9).
    model.k = 1;
    model.centers = stats::Matrix(1, 0);
    model.labels.assign(profile.num_units(), 0);
    model.silhouette_scores = {cfg.choose_k.k1_baseline_score};
    model.phases = phase_stats_for(profile, model.labels, 1);
    model.phase_types = {jvm::OpKind::kMap};
    model.representative_units = {0};
    return model;
  }
  stats::Matrix features = sparse.select_columns_dense(selected, cfg.threads);
  features.normalize_rows_l1();

  // 3. Cluster with k-means, choosing k by the silhouette 90% rule.
  Rng rng(cfg.seed);
  stats::ChooseKConfig ck = cfg.choose_k;
  if (ck.threads == 0) ck.threads = cfg.threads;
  stats::ChooseKResult chosen = stats::choose_k(features, rng, ck);

  model.k = chosen.k;
  model.silhouette_scores = std::move(chosen.scores);
  model.centers = std::move(chosen.clustering.centers);
  model.labels = std::move(chosen.clustering.labels);
  model.feature_names.reserve(selected.size());
  model.feature_kinds.reserve(selected.size());
  const std::size_t offset = features::method_col_offset(cfg.features);
  for (std::size_t c : selected) {
    if (cfg.features != features::FeatureMode::kFreq && c < hw::kMavDim) {
      // MAV columns carry their canonical names; kFramework keeps them out
      // of the operation-dominance phase typing, which is method-based.
      model.feature_names.push_back(features::mav_feature_name(c));
      model.feature_kinds.push_back(jvm::OpKind::kFramework);
    } else {
      model.feature_names.push_back(profile.method_names[c - offset]);
      model.feature_kinds.push_back(profile.method_kinds[c - offset]);
    }
  }

  // 4. Per-phase CPI statistics, then merge performance-equivalent phases:
  // clusters that differ in code signature but not in CPI distribution are
  // one stratum for sampling purposes (and one phase to an architect).
  model.phases = phase_stats_for(profile, model.labels, model.k);
  if (cfg.merge_threshold > 0.0 && model.k > 1) {
    merge_equivalent_phases(model, profile, cfg.merge_threshold);
  }

  // 5. Phase typing: dominant non-framework operation by snapshot-frame
  // share over the *full* method table (selection is for clustering only;
  // a phase's operational identity uses everything its units executed).
  model.phase_types = classify_phase_types(profile, model.labels, model.k);

  // 6. Representative units (nearest to each center) for the CODE baseline.
  model.representative_units.assign(model.k, 0);
  std::vector<double> best(model.k, -1.0);
  for (std::size_t u = 0; u < features.rows(); ++u) {
    const std::size_t h = model.labels[u];
    const double d2 =
        stats::squared_distance(features.row(u), model.centers.row(h));
    if (best[h] < 0.0 || d2 < best[h]) {
      best[h] = d2;
      model.representative_units[h] = u;
    }
  }
  SIMPROF_LOG(kDebug) << "phase: formed k=" << model.k << " phases from "
                      << profile.num_units() << " units ("
                      << selected.size() << " selected features)";
  return model;
}

std::vector<double> vectorize_unit(const PhaseModel& model,
                                   const ThreadProfile& profile,
                                   std::size_t unit_index) {
  SIMPROF_EXPECTS(unit_index < profile.num_units(), "unit out of range");
  // Map model features to this profile once per call; callers classifying
  // whole profiles should use vectorize_units (which hoists this map) —
  // this entry point is for spot checks and tests.
  const FeatureMaps maps(model);
  std::vector<double> v(model.feature_names.size(), 0.0);
  std::vector<std::uint32_t> cols_scratch;
  std::vector<double> vals_scratch;
  accumulate_unit(model, profile, profile.units[unit_index], maps, v,
                  cols_scratch, vals_scratch);
  return v;
}

stats::Matrix vectorize_units(const PhaseModel& model,
                              const ThreadProfile& profile,
                              std::size_t threads) {
  // Hoisted feature maps (the profile's method ids differ from the training
  // run's, names are the stable identity; MAV columns are fixed), shared
  // read-only by all row blocks.
  const FeatureMaps maps(model);
  const std::size_t n = profile.num_units();
  stats::Matrix vectors(n, model.feature_names.size());
  support::parallel_for(
      threads, 0, n, 256,
      [&](std::size_t, std::size_t cb, std::size_t ce) {
        std::vector<std::uint32_t> cols_scratch;
        std::vector<double> vals_scratch;
        for (std::size_t u = cb; u < ce; ++u) {
          accumulate_unit(model, profile, profile.units[u], maps,
                          vectors.row(u), cols_scratch, vals_scratch);
        }
      });
  return vectors;
}

void merge_equivalent_phases(PhaseModel& model, const ThreadProfile& profile,
                             double threshold) {
  // Union-find over phases; equivalence by the Eq. 6-style relative test on
  // (mean, stddev), with near-zero deviations treated as equal.
  std::vector<std::size_t> parent(model.k);
  for (std::size_t h = 0; h < model.k; ++h) parent[h] = h;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };

  auto equivalent = [&](const PhaseStats& a, const PhaseStats& b) {
    if (a.count == 0 || b.count == 0) return false;
    const double mean_ref = std::max(a.mean_cpi, b.mean_cpi);
    if (mean_ref <= 0.0) return true;
    if (std::abs(a.mean_cpi - b.mean_cpi) > threshold * mean_ref) {
      return false;
    }
    // Dispersion leg of Eq. 6 on the *trimmed* deviation — the raw σ of a
    // phase with a handful of outlier units can differ across otherwise
    // identical strata by far more than `threshold`, which used to keep
    // performance-equivalent phases apart (and over-stratify the sample).
    const double dev_a = a.trimmed_stddev_cpi;
    const double dev_b = b.trimmed_stddev_cpi;
    const double dev_ref = std::max(dev_a, dev_b);
    if (dev_ref <= 0.05 * mean_ref) return true;  // both effectively tight
    return std::abs(dev_a - dev_b) <= threshold * dev_ref;
  };

  for (std::size_t a = 0; a < model.k; ++a) {
    for (std::size_t b = a + 1; b < model.k; ++b) {
      if (equivalent(model.phases[a], model.phases[b])) {
        parent[find(b)] = find(a);
      }
    }
  }

  // Compact to dense new ids.
  std::vector<std::size_t> new_id(model.k, model.k);
  std::size_t next = 0;
  for (std::size_t h = 0; h < model.k; ++h) {
    const std::size_t r = find(h);
    if (new_id[r] == model.k) new_id[r] = next++;
    new_id[h] = new_id[r];
  }
  if (next == model.k) return;  // nothing merged

  // Merged centers: count-weighted averages of constituent centers.
  stats::Matrix centers(next, model.centers.cols());
  std::vector<double> weight(next, 0.0);
  for (std::size_t h = 0; h < model.k; ++h) {
    const double w = static_cast<double>(model.phases[h].count);
    const std::size_t t = new_id[h];
    auto dst = centers.row(t);
    const auto src = model.centers.row(h);
    for (std::size_t c = 0; c < centers.cols(); ++c) dst[c] += w * src[c];
    weight[t] += w;
  }
  for (std::size_t t = 0; t < next; ++t) {
    if (weight[t] <= 0.0) continue;
    for (auto& v : centers.row(t)) v /= weight[t];
  }
  model.centers = std::move(centers);
  for (auto& l : model.labels) l = new_id[l];
  model.k = next;
  model.phases = phase_stats_for(profile, model.labels, model.k);
}

stats::CovSummary cov_summary(const ThreadProfile& profile,
                              const PhaseModel& model) {
  const auto cpis = profile.cpis();
  return stats::grouped_cov(cpis, model.labels, model.k);
}

std::vector<jvm::OpKind> classify_phase_types(
    const ThreadProfile& profile, const std::vector<std::size_t>& labels,
    std::size_t k) {
  SIMPROF_EXPECTS(labels.size() == profile.num_units(),
                  "labels/profile mismatch");
  std::vector<std::array<double, 8>> weight(k, std::array<double, 8>{});
  for (std::size_t u = 0; u < labels.size(); ++u) {
    const UnitRecord& rec = profile.units[u];
    for (std::size_t i = 0; i < rec.methods.size(); ++i) {
      const auto kind = profile.method_kinds[rec.methods[i]];
      weight[labels[u]][static_cast<std::size_t>(kind)] +=
          static_cast<double>(rec.counts[i]);
    }
  }
  std::vector<jvm::OpKind> types(k, jvm::OpKind::kFramework);
  for (std::size_t h = 0; h < k; ++h) {
    double best = 0.0;
    for (std::size_t kind = 0; kind < 8; ++kind) {
      if (static_cast<jvm::OpKind>(kind) == jvm::OpKind::kFramework) continue;
      if (weight[h][kind] > best) {
        best = weight[h][kind];
        types[h] = static_cast<jvm::OpKind>(kind);
      }
    }
    // Shuffle traffic is IO in the paper's 4-type taxonomy (Section IV-D).
    if (types[h] == jvm::OpKind::kShuffle) types[h] = jvm::OpKind::kIo;
  }
  return types;
}

std::optional<std::string> dominant_method(const PhaseModel& model,
                                           std::size_t phase) {
  std::size_t best = 0;
  double best_weight = -1.0;  // center weights are frequencies, never < 0
  for (std::size_t f = 0; f < model.feature_names.size(); ++f) {
    if (model.feature_kinds[f] == jvm::OpKind::kFramework) continue;
    if (model.centers.at(phase, f) > best_weight) {
      best_weight = model.centers.at(phase, f);
      best = f;
    }
  }
  if (best_weight < 0.0) return std::nullopt;
  return model.feature_names[best];
}

std::size_t trimmed_tail_count(std::size_t count) {
  if (count < kTrimFloorUnits) return 0;
  return std::max<std::size_t>(1, count / 20);
}

std::vector<PhaseStats> phase_stats_for(const ThreadProfile& profile,
                                        const std::vector<std::size_t>& labels,
                                        std::size_t k) {
  SIMPROF_EXPECTS(labels.size() == profile.num_units(),
                  "labels/profile mismatch");
  std::vector<std::vector<double>> groups(k);
  for (std::size_t u = 0; u < labels.size(); ++u) {
    SIMPROF_EXPECTS(labels[u] < k, "label out of range");
    groups[labels[u]].push_back(profile.units[u].cpi());
  }
  std::vector<PhaseStats> out(k);
  const double n = static_cast<double>(profile.num_units());
  for (std::size_t h = 0; h < k; ++h) {
    out[h].count = groups[h].size();
    out[h].mean_cpi = stats::mean(groups[h]);
    out[h].stddev_cpi = stats::sample_stddev(groups[h]);
    // Trimmed deviation per the explicit policy in phase.h: zero below
    // kTrimFloorUnits (fall back to raw σ), at least one per tail above it.
    auto& g = groups[h];
    std::sort(g.begin(), g.end());
    const std::size_t trim = trimmed_tail_count(g.size());
    if (trim > 0 && g.size() > 2 * trim) {
      out[h].trimmed_stddev_cpi = stats::sample_stddev(
          std::span<const double>(g.data() + trim, g.size() - 2 * trim));
    } else {
      out[h].trimmed_stddev_cpi = out[h].stddev_cpi;
    }
    out[h].cov = out[h].mean_cpi > 0.0 ? out[h].stddev_cpi / out[h].mean_cpi
                                       : 0.0;
    out[h].weight = n > 0.0 ? static_cast<double>(out[h].count) / n : 0.0;
  }
  return out;
}

}  // namespace simprof::core
