#include "core/streaming.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/obs.h"
#include "support/assert.h"

namespace simprof::core {

StreamingPhaseFormer::StreamingPhaseFormer(StreamingConfig cfg)
    : cfg_(std::move(cfg)) {}

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

void StreamingPhaseFormer::ingest(const ThreadProfile& source,
                                  std::size_t unit_index) {
  SIMPROF_EXPECTS(unit_index < source.num_units(), "unit out of range");
  static obs::Counter& ingested =
      obs::metrics().counter("stream.units_ingested");
  static obs::QuantileHistogram& ingest_ms =
      obs::metrics().quantile_histogram("stream.ingest_ms");
  const auto t0 = std::chrono::steady_clock::now();

  adopt_method_table(source);
  const UnitRecord& rec = source.units[unit_index];
  for (const jvm::MethodId m : rec.methods) {
    SIMPROF_EXPECTS(m < profile_.num_methods(),
                    "method id outside profile table");
  }
  profile_.units.push_back(rec);
  ++total_ingested_;
  ingested.increment();

  const std::size_t n = profile_.num_units();
  const bool due =
      reclusters_ == 0
          ? n >= kStreamWarmupUnits
          : static_cast<double>(n) >=
                kReclusterGrowth *
                    static_cast<double>(last_recluster_units_);
  if (due) recluster();

  ingest_ms.observe(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
}

void StreamingPhaseFormer::ingest_range(const ThreadProfile& source,
                                        std::size_t begin, std::size_t end) {
  SIMPROF_EXPECTS(begin <= end && end <= source.num_units(),
                  "ingest_range out of range");
  for (std::size_t u = begin; u < end; ++u) ingest(source, u);
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
  }
  model_ = form_phases(profile_, cfg_.formation);

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
