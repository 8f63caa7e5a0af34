#include "core/streaming.h"

#include <chrono>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/obs.h"
#include "support/assert.h"

namespace simprof::core {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Geometric recluster schedule: recluster when the retained population
/// reaches this multiple of its size at the previous recluster. 1.5 means
/// ~2.7 full passes per doubling — O(log n) reclusters over a run.
constexpr double kReclusterGrowth = 1.5;
static_assert(kReclusterGrowth >= 1.0,
              "a growth below 1 would recluster in place forever");

}  // namespace

StreamingPhaseFormer::StreamingPhaseFormer(StreamingConfig cfg)
    : cfg_(std::move(cfg)) {
  SIMPROF_EXPECTS(cfg_.warmup_units > 0, "warmup_units must be positive");
  SIMPROF_EXPECTS(cfg_.refine_batch > 0, "refine_batch must be positive");
}

void StreamingPhaseFormer::adopt_method_table(const ThreadProfile& source) {
  // Ids are adopted verbatim, so the source table must be a consistent
  // extension of what we have: names agree on the overlap, new methods
  // append. The (data, size) pair memoizes the check — streaming a run of
  // units from one stable profile verifies names once, not per unit.
  if (source.method_names.data() == verified_table_ &&
      source.method_names.size() == verified_table_size_) {
    return;
  }
  const std::size_t overlap =
      std::min(profile_.num_methods(), source.num_methods());
  for (std::size_t m = 0; m < overlap; ++m) {
    SIMPROF_EXPECTS(profile_.method_names[m] == source.method_names[m],
                    "source method table conflicts with adopted ids");
  }
  for (std::size_t m = profile_.num_methods(); m < source.num_methods(); ++m) {
    profile_.method_names.push_back(source.method_names[m]);
    profile_.method_kinds.push_back(source.method_kinds[m]);
  }
  verified_table_ = source.method_names.data();
  verified_table_size_ = source.method_names.size();
}

std::size_t StreamingPhaseFormer::ingest(const ThreadProfile& source,
                                         std::size_t unit_index) {
  SIMPROF_EXPECTS(unit_index < source.num_units(), "unit out of range");
  static obs::Counter& ingested =
      obs::metrics().counter("stream.units_ingested");
  static obs::QuantileHistogram& ingest_ms =
      obs::metrics().quantile_histogram("stream.ingest_ms");
  const auto t0 = std::chrono::steady_clock::now();

  adopt_method_table(source);
  const UnitRecord& rec = source.units[unit_index];
  unit_feature_entries(rec, profile_.num_methods(), cols_scratch_,
                       vals_scratch_, cfg_.formation.features);
  raw_.append_row_grow(cols_scratch_, vals_scratch_);
  profile_.units.push_back(rec);
  ++total_ingested_;
  ingested.increment();

  std::size_t label = kNoPhase;
  const std::size_t n = profile_.num_units();
  const bool due =
      reclusters_ == 0
          ? n >= cfg_.warmup_units
          : static_cast<double>(n) >=
                kReclusterGrowth *
                    static_cast<double>(last_recluster_units_);
  if (due) {
    recluster();
    label = live_labels_.back();
  } else if (has_model()) {
    label = classify_latest();
    live_labels_.push_back(label);
  } else {
    live_labels_.push_back(kNoPhase);
  }

  ingest_ms.observe(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  return label;
}

void StreamingPhaseFormer::ingest_range(const ThreadProfile& source,
                                        std::size_t begin, std::size_t end) {
  SIMPROF_EXPECTS(begin <= end && end <= source.num_units(),
                  "ingest_range out of range");
  for (std::size_t u = begin; u < end; ++u) ingest(source, u);
}

std::size_t StreamingPhaseFormer::classify_latest() {
  // Vectorize the newest unit into the model's feature space (same
  // accumulate + L1-normalize-over-selected semantics as vectorize_unit,
  // via the method-id fast path valid inside the adopted table; MAV
  // contributions are the block-normalized entries, exactly what the
  // training rows stored).
  const std::size_t d = model_.centers.cols();
  if (d == 0) return 0;  // single-phase collapse: everything is phase 0
  const UnitRecord& rec = profile_.units.back();
  const auto mode = cfg_.formation.features;
  std::vector<double> v(d, 0.0);
  double sum = 0.0;
  if (mode != features::FeatureMode::kMav) {
    double total = 0.0;
    if (mode == features::FeatureMode::kCombined) {
      for (const std::uint32_t c : rec.counts) {
        total += static_cast<double>(c);
      }
    }
    for (std::size_t i = 0; i < rec.methods.size(); ++i) {
      const std::size_t m = rec.methods[i];
      if (m >= feature_of_method_.size()) continue;  // arrived post-fit
      const std::size_t f = feature_of_method_[m];
      if (f == kNone) continue;
      double val = static_cast<double>(rec.counts[i]);
      if (mode == features::FeatureMode::kCombined) {
        if (total <= 0.0) continue;
        val /= total;
      }
      v[f] += val;
      sum += val;
    }
  }
  if (mode != features::FeatureMode::kFreq) {
    cols_scratch_.clear();
    vals_scratch_.clear();
    features::append_mav_entries(rec.mav, 0, cols_scratch_, vals_scratch_);
    for (std::size_t i = 0; i < cols_scratch_.size(); ++i) {
      const std::size_t f = feature_of_mav_[cols_scratch_[i]];
      if (f == kNone) continue;
      v[f] += vals_scratch_[i];
      sum += vals_scratch_[i];
    }
  }
  if (sum > 0.0) {
    for (double& x : v) x /= sum;
  }
  const std::size_t label =
      stats::nearest_center(center_tracker_.centers(), v);

  // Buffer for mini-batch refinement; flush a full batch through
  // partial_fit so the centers track drift between reclusters.
  if (pending_rows_ < pending_.rows()) {
    auto dst = pending_.row(pending_rows_);
    for (std::size_t j = 0; j < d; ++j) dst[j] = v[j];
    ++pending_rows_;
  }
  if (pending_rows_ == pending_.rows()) flush_refinement();
  return label;
}

void StreamingPhaseFormer::flush_refinement() {
  if (pending_rows_ == 0 || pending_.rows() == 0) return;
  static obs::Counter& refinements =
      obs::metrics().counter("stream.refinements");
  center_tracker_.partial_fit(pending_, cfg_.formation.threads);
  refinements.increment();
  pending_rows_ = 0;
}

void StreamingPhaseFormer::recluster() {
  SIMPROF_EXPECTS(profile_.num_units() > 0, "recluster with no units");
  static obs::Counter& reclusters =
      obs::metrics().counter("stream.recluster");

  // Memory bound: drop the oldest units beyond the retention cap before the
  // pass, so both the model and the per-former state cover a sliding window.
  if (cfg_.max_retained_units > 0 &&
      profile_.num_units() > cfg_.max_retained_units) {
    static obs::Counter& evicted =
        obs::metrics().counter("stream.evicted_units");
    const std::size_t drop = profile_.num_units() - cfg_.max_retained_units;
    evicted.add(drop);
    profile_.units.erase(profile_.units.begin(),
                         profile_.units.begin() +
                             static_cast<std::ptrdiff_t>(drop));
    stats::SparseMatrix rebuilt;
    for (const UnitRecord& rec : profile_.units) {
      unit_feature_entries(rec, profile_.num_methods(), cols_scratch_,
                           vals_scratch_, cfg_.formation.features);
      rebuilt.append_row_grow(cols_scratch_, vals_scratch_);
    }
    raw_ = std::move(rebuilt);
  }

  // Snapshot the accumulated raw matrix at the full current feature space
  // and normalize — bitwise what build_sparse_feature_matrix would produce
  // for the retained profile, which is what makes finalize() bit-identical
  // to the batch path. (Under kMav/kCombined the MAV block occupies the
  // fixed low columns, so growing the method space still appends at the
  // end.)
  stats::SparseMatrix snapshot = raw_;
  snapshot.grow_cols(features::feature_space_cols(cfg_.formation.features,
                                                  profile_.num_methods()));
  snapshot.normalize_rows_l1();
  model_ = form_phases_from_sparse(profile_, snapshot, cfg_.formation);

  // Re-seed the mini-batch tracker from the fresh centers, learning rates
  // warm-started with the phase populations.
  std::vector<std::uint64_t> counts;
  counts.reserve(model_.phases.size());
  for (const PhaseStats& p : model_.phases) counts.push_back(p.count);
  center_tracker_ = stats::MiniBatchKMeans(model_.centers, std::move(counts));
  pending_ = stats::Matrix(cfg_.refine_batch, model_.centers.cols());
  pending_rows_ = 0;

  // Method id → feature position, by name (feature identity is the name;
  // inside the adopted table ids are stable so the map is a flat vector).
  // MAV features map by their fixed column index instead.
  std::unordered_map<std::string_view, std::size_t> pos;
  pos.reserve(model_.feature_names.size());
  feature_of_mav_.fill(kNone);
  for (std::size_t f = 0; f < model_.feature_names.size(); ++f) {
    if (cfg_.formation.features != features::FeatureMode::kFreq) {
      if (auto mc = features::mav_feature_index(model_.feature_names[f])) {
        feature_of_mav_[*mc] = f;
        continue;
      }
    }
    pos.emplace(model_.feature_names[f], f);
  }
  feature_of_method_.assign(profile_.num_methods(), kNone);
  for (std::size_t m = 0; m < profile_.num_methods(); ++m) {
    if (auto it = pos.find(profile_.method_names[m]); it != pos.end()) {
      feature_of_method_[m] = it->second;
    }
  }

  live_labels_ = model_.labels;
  last_recluster_units_ = profile_.num_units();
  ++reclusters_;
  reclusters.increment();
  if (hook_) hook_(*this);
}

PhaseModel StreamingPhaseFormer::finalize() {
  SIMPROF_EXPECTS(profile_.num_units() > 0,
                  "finalize on a former that ingested nothing");
  recluster();
  return model_;
}

}  // namespace simprof::core
