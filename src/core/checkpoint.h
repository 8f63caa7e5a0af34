// Unit-boundary checkpoints: snapshot/restore of the warm simulation state,
// plus the op tape that makes restored measurement O(selected units).
//
// The SMARTS/live-points observation (Wunderlich et al., ISCA'03) applied to
// this substrate: to measure one selected sampling unit the simulator does
// not need to re-run the whole workload — it needs the prefix's *state*
// (warm cache tag arrays, PMU counters, shadow call stack, RNG stream,
// profiling cursors) and the profiled core's *execution trace* for the units
// it wants to measure. During the oracle pass a CheckpointRecorder opens a
// window at every stride-th unit boundary (including unit 0): it serializes
// the state at the window's opening boundary, buffers every detailed
// execute() chunk the profiled core runs (instruction count, consumed memory
// references, LLC pressure, shadow stack — see exec::OpTapeSink), and
// publishes the window as one archive when the next window opens. A
// CheckpointReplayer later measures any selected unit by restoring the
// nearest archive at or before it into a *fresh* cluster and re-executing
// the tape through the unit — no workload functions run at all, so the cost
// is O(selected units), not O(run length). Only the profiled core ever
// touches the cache hierarchy (other cores execute functionally), so the
// tape plus the snapshot determine the measured counters completely:
// restored records are bit-identical to the oracle pass — enforced by
// core_lab_test and verify_checkpoint_recovery.
//
// Archive format ("SCKP", version 4):
//   u32 magic | u32 version | u64 hash(payload) | str payload
// The payload carries the run identity (cache key, unit geometry), the
// profiled thread's state, the three cache models of the profiled hierarchy
// and the window's op tape. Version 3 added the generator state at each
// unit boundary inside the window: workload code draws from the thread's
// RNG between boundaries, the replay does not run it, and without the saved
// state a boundary's migration draw would land on the wrong units. Version
// 4 stores only each cache set's occupied ways (hw::Cache::save_state) and
// replaced the byte-wise FNV-1a with a word-wise hash: four multiply-xor
// lanes over 8-byte words, then the leftover words and the zero-padded tail
// bytes, with the length folded in. Older archives are rejected with
// CheckpointError (measurement then runs cold). The payload hash catches
// corruption that field-level bounds checks cannot — a flipped bit inside a
// cache tag array still decodes as a valid u64, but a wrong tag would
// silently change restored PMU numbers, and the contract is "typed error or
// fallback, never a wrong number". load_checkpoint verifies it before
// decoding anything. Restore into the wrong run or at the wrong boundary
// throws CheckpointError.
//
// An archive is encoded into one byte buffer and written out once: the
// recorder reuses its buffer across windows, encoding the state section
// when a window opens and appending the tape when it publishes.
//
// Durability mirrors the profile cache: archives are published by
// write-to-tmp + fsync + rename, so a killed writer leaves no partial file
// under the published name.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/profile.h"
#include "exec/cluster.h"
#include "support/serialize.h"

namespace simprof::core {

/// Malformed, mismatched, or stale checkpoint archive. Derives
/// SerializeError so the generic corrupt-archive handling (log + fallback to
/// full re-execution) applies without new catch sites.
class CheckpointError : public SerializeError {
 public:
  explicit CheckpointError(const std::string& what) : SerializeError(what) {}
};

inline constexpr std::uint32_t kCheckpointMagic = 0x504b4353;  // "SCKP"
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// One recorded execute() chunk of the profiled core: enough to re-run the
/// chunk bit-identically on a restored cluster (see exec::OpTapeSink).
struct TapeOp {
  std::uint64_t instrs = 0;
  std::uint32_t llc_ways = 0;  ///< shared-LLC effective ways (wave pressure)
  std::vector<jvm::MethodId> frames;  ///< shadow stack during the chunk
  std::vector<hw::MemRef> refs;       ///< references the chunk consumed
  /// Generator state entering the unit boundary this chunk ends at; set only
  /// for boundaries inside the window (archived sparsely, not per op).
  std::optional<RngState> boundary_rng;
};
using CheckpointTape = std::vector<TapeOp>;

/// File name for the archive of unit `u` inside a run's checkpoint dir.
std::string checkpoint_file_name(std::uint64_t unit_index);

/// Serialize the cluster's warm state at the unit boundary starting
/// `unit_index`, plus the window's op tape (empty for state-only archives,
/// e.g. the verify fixtures). Must be called at the governor sequence point
/// (see ExecutorContext::maybe_fire_boundaries) so RNG states line up with
/// what a replayer will observe.
void save_checkpoint(std::ostream& out, const exec::Cluster& cluster,
                     const std::string& cache_key, std::uint64_t unit_index,
                     const CheckpointTape& tape = {});

/// Validate an archive and impose its state onto `cluster` (the profiled
/// thread and the profiled cache hierarchy are overwritten; `cluster` only
/// has to match the archive's geometry, not its history). Throws
/// CheckpointError / SerializeError on any mismatch or corrupt bytes; a
/// failed load never half-applies. Fills `tape_out` with the archive's op
/// tape when non-null. Returns the payload size in bytes (obs counters).
std::uint64_t load_checkpoint(std::istream& in, exec::Cluster& cluster,
                              const std::string& cache_key,
                              std::uint64_t expect_unit,
                              CheckpointTape* tape_out = nullptr);

/// UnitGovernor + OpTapeSink that records checkpoint windows during a
/// detailed (oracle) pass: state captured when a window opens at a stride
/// boundary, chunks buffered while it is live, archive published when the
/// next window opens. Save failures are logged and skipped — checkpointing
/// is an optimization, not a correctness dependency of the oracle pass. The
/// owner must call finalize() after the workload returns to publish the last
/// window (it covers the run's trailing units, including a trailing partial
/// unit).
class CheckpointRecorder final : public exec::UnitGovernor,
                                 public exec::OpTapeSink {
 public:
  /// `dir` is this run's private archive directory (created on first save).
  CheckpointRecorder(std::string dir, std::string cache_key,
                     std::uint64_t stride);

  void on_unit_start(std::uint64_t unit_index,
                     exec::ExecutorContext& ctx) override;
  void on_chunk(std::uint64_t instrs, std::span<const hw::MemRef> refs,
                std::uint32_t llc_ways,
                std::span<const jvm::MethodId> frames) override;
  void on_boundary_rng(std::uint64_t unit_index, const RngState& rng) override;

  /// Publish the still-open window. Idempotent.
  void finalize();

 private:
  void publish_window();

  std::string dir_;
  std::string cache_key_;
  std::uint64_t stride_;
  bool dir_ready_ = false;

  bool window_open_ = false;
  std::uint64_t window_unit_ = 0;
  /// The open window's archive: header space and state section encoded at
  /// window open, tape appended at publish. Reused across windows.
  std::string archive_;
  CheckpointTape tape_;
};

/// ProfilingHook that collects UnitRecords exactly like SamplingManager but
/// only for the target units; shared by the warm replayer and the cold
/// measurer so both produce bit-identical records.
class UnitRecordCollector : public exec::ProfilingHook {
 public:
  explicit UnitRecordCollector(std::vector<std::uint64_t> target_units);

  void on_snapshot(std::span<const jvm::MethodId> stack) override;
  void on_unit_boundary(const hw::PmuCounters& delta,
                        const hw::MavBlock& mav) override;

  /// Collected records for the target units, in ascending unit order.
  std::vector<UnitRecord> take_records();

 protected:
  bool is_target(std::uint64_t u) const;

  std::vector<std::uint64_t> targets_;  ///< sorted, deduplicated
  std::uint64_t current_unit_ = 0;

 private:
  MethodHistogram current_histogram_;
  std::vector<UnitRecord> records_;
};

/// Measures the target units from recorded archives alone: for each target,
/// restore the nearest archive at or before it into a private cluster and
/// re-execute the archived op tape through the target unit. The workload
/// never runs, so targets clustered in one window share a single restore and
/// everything before a window is skipped outright. Any archive problem
/// (corrupt, missing, tape not covering a unit the run contained) raises
/// SerializeError — the caller (WorkloadLab::measure_units) falls back to
/// exact cold re-execution.
class CheckpointReplayer final : public UnitRecordCollector {
 public:
  /// `dir` is scanned for `ckpt-u<unit>.sckp` archives at construction;
  /// other names, including digit runs too long for a unit index, are
  /// skipped.
  CheckpointReplayer(std::string dir, std::string cache_key,
                     std::vector<std::uint64_t> target_units);

  /// Any archives to replay from? When false the caller should measure cold.
  bool has_archives() const { return !available_.empty(); }

  /// Run the tape replay over a fresh cluster built from `cc` (must be the
  /// same configuration as the recording oracle pass).
  void replay(const exec::ClusterConfig& cc);

  std::size_t restores() const { return restores_; }
  /// Instructions skipped entirely (the workload never runs) by restoring
  /// past them.
  std::uint64_t fast_forwarded_instrs() const { return ff_instrs_; }

 private:
  std::string dir_;
  std::string cache_key_;
  std::vector<std::uint64_t> available_;  ///< archived unit indices, sorted

  std::size_t restores_ = 0;
  std::uint64_t ff_instrs_ = 0;
};

/// UnitGovernor + collector for exact measurement with no archives: the
/// workload runs, units [0, max target] execute detailed (so the cache state
/// entering each target is exact) and the profiled core stops once the unit
/// after the last target starts (ExecutorContext::stop). Used when no
/// archives exist and as the fallback when one is corrupt.
class ColdMeasurer final : public UnitRecordCollector,
                           public exec::UnitGovernor {
 public:
  explicit ColdMeasurer(std::vector<std::uint64_t> target_units);

  void on_unit_start(std::uint64_t unit_index,
                     exec::ExecutorContext& ctx) override;
};

}  // namespace simprof::core
