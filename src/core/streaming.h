// Online streaming phase formation — the live sibling of form_phases.
//
// The batch pipeline (phase.h) needs the whole run's profile before it can
// cluster; a profiling daemon wants phase structure *while the run is still
// executing*, so selections can start before the last unit lands. The
// StreamingPhaseFormer accepts sampling units one at a time (or in
// micro-batches via repeated ingest calls) into a retained profile and
// keeps one model: the latest recluster. A recluster is batch form_phases
// over the retained units, run on a geometric schedule (kStreamWarmupUnits,
// then whenever the population has grown by kReclusterGrowth). Each one
// re-runs feature selection AND the silhouette k-sweep, so k is revisited
// as the workload reveals itself, and the update hook hands the fresh model
// to the caller for an interim selection.
//
// Equivalence contract (enforced by tests/core_streaming_test.cc): every
// recluster's model is form_phases of profile() at that moment, so with
// max_retained_units = 0, ingesting a profile's units in order and calling
// finalize() yields a PhaseModel bit-identical to batch form_phases on that
// profile. Shuffled arrival converges to the same structure within test
// tolerance. Determinism: ingestion is serial by construction and every
// parallel stage of form_phases is bit-identical for any thread count, so
// the same arrival order gives the same model at every recluster at any
// `threads` value.
//
// Memory bound: per-former state is the retained units' records plus the
// latest model; feature matrices exist only inside a recluster. With
// max_retained_units = n the former evicts the oldest units at each
// recluster, bounding state to the newest n units (and trading away exact
// batch equivalence for a sliding window).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "core/phase.h"
#include "core/profile.h"

namespace simprof::core {

/// Units to accumulate before the first recluster. Below this the former
/// has no model.
inline constexpr std::size_t kStreamWarmupUnits = 16;
/// Geometric recluster schedule: after the first, recluster when the
/// retained population reaches this multiple of its size at the previous
/// recluster. 1.5 means ~2.7 full passes per doubling — O(log n) reclusters
/// over a run.
inline constexpr double kReclusterGrowth = 1.5;
static_assert(kReclusterGrowth >= 1.0,
              "a growth below 1 would recluster in place forever");

struct StreamingConfig {
  /// Formation parameters used at every recluster (threads, feature
  /// selection, choose_k, merge threshold, seed — identical meaning to the
  /// batch path, which is what makes finalize() comparable to it).
  PhaseFormationConfig formation;
  /// Memory bound: retain at most this many newest units (0 = retain all,
  /// required for exact batch equivalence). Eviction happens at recluster
  /// boundaries, oldest first.
  std::size_t max_retained_units = 0;
};

class StreamingPhaseFormer {
 public:
  explicit StreamingPhaseFormer(StreamingConfig cfg = {});

  /// Ingest one sampling unit from `source` (typically the unit that just
  /// completed in a live run). Method ids are adopted verbatim — the
  /// internal method table is extended to cover the source's and names must
  /// agree where they overlap, so in-order full ingestion reconstructs the
  /// source profile exactly. Reclusters (and fires the update hook) when
  /// the schedule says the population is due.
  void ingest(const ThreadProfile& source, std::size_t unit_index);

  /// Ingest a contiguous micro-batch [begin, end) of source units, in
  /// order. Equivalent to calling ingest() per unit.
  void ingest_range(const ThreadProfile& source, std::size_t begin,
                    std::size_t end);

  /// Units ingested over the former's lifetime (eviction does not subtract).
  std::size_t units_ingested() const { return total_ingested_; }
  /// Units currently retained (== ingested unless max_retained_units hit).
  std::size_t units_retained() const { return profile_.num_units(); }
  std::size_t reclusters() const { return reclusters_; }
  bool has_model() const { return reclusters_ > 0; }

  /// The latest reclustered model. Valid once has_model(); its labels cover
  /// the units retained at that recluster.
  const PhaseModel& model() const { return model_; }

  /// The internal accumulated profile (retained units, adopted method
  /// table). Feed this plus model() to the samplers for live selections.
  const ThreadProfile& profile() const { return profile_; }

  /// Invoked after every recluster (model just replaced), e.g. to emit an
  /// interim sample plan before the run finishes. The reference is `*this`;
  /// the hook may read model()/profile() but must not ingest.
  using UpdateHook = std::function<void(const StreamingPhaseFormer&)>;
  void set_update_hook(UpdateHook hook) { hook_ = std::move(hook); }

  /// Force a full recluster over everything retained and return the final
  /// model. With max_retained_units = 0 and in-order arrival this is
  /// bit-identical to form_phases on the source profile. Idempotent: a
  /// second call with no intervening ingest reclusters the same population.
  PhaseModel finalize();

 private:
  void adopt_method_table(const ThreadProfile& source);
  void recluster();

  StreamingConfig cfg_;
  ThreadProfile profile_;  ///< retained units + adopted method table
  PhaseModel model_;
  std::size_t total_ingested_ = 0;
  std::size_t reclusters_ = 0;
  std::size_t last_recluster_units_ = 0;
  UpdateHook hook_;
  /// Last source table adopt_method_table verified, so ingesting a run of
  /// units from the same (unmodified) profile checks names once, not per
  /// unit.
  const void* verified_table_ = nullptr;
  std::size_t verified_table_size_ = 0;
};

}  // namespace simprof::core
