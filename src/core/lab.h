// WorkloadLab: one-stop harness that runs a Table I workload configuration
// under the thread profiler and returns its ThreadProfile, with a disk cache
// so the oracle pass per (workload, input, scale, seed) runs exactly once
// across all benches and examples.
//
// run_batch runs many configurations concurrently on the shared
// support::ThreadPool, in item order. Its only dedup is run()'s per-key
// single-flight: items sharing a cache key run one oracle pass, and the
// others decode its published profile. Profiles are a pure function of their
// configuration, so batch output is bit-identical to running the items
// serially, for any thread count.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/profile.h"
#include "exec/cluster.h"
#include "workloads/workloads.h"

namespace simprof::core {

/// Cache schema version: part of every cache key and checkpoint directory
/// name ("…-v6"); bump to invalidate cached runs. Schema 6: profiles gained
/// per-unit memory-access vectors (profile format "SPRF" v4), so profiles
/// cached under schema 5 no longer decode.
inline constexpr std::uint32_t kLabCacheSchema = 6;

/// Delete checkpoint archive directories under `root` whose name carries a
/// stale schema suffix ("-v<digits>" with digits != kLabCacheSchema) — the
/// replayer would reject them anyway, so they are pure disk waste. Returns
/// the number of directories removed; each removal bumps the `ckpt.pruned`
/// counter, and a non-zero sweep logs one kWarn summary line. A missing
/// root is a no-op.
std::size_t prune_stale_checkpoint_dirs(const std::string& root);

struct LabConfig {
  double scale = 1.0;
  std::uint64_t seed = 42;
  std::uint32_t num_cores = 4;
  std::uint32_t graph_scale_override = 0;  ///< 0 = catalog default
  /// Sampling-unit size in virtual instructions (paper: 100M, here scaled
  /// 1/100 by default); the snapshot interval stays at unit/10.
  std::uint64_t unit_instrs = 1'000'000;
  /// Cache directory; empty → $SIMPROF_CACHE_DIR or ".simprof_cache".
  std::string cache_dir;
  bool use_cache = true;
  /// Checkpoint archive root; empty → $SIMPROF_CHECKPOINT_DIR or
  /// "<cache_dir>/ckpt". Each run gets a subdirectory named after its cache
  /// key.
  std::string checkpoint_dir;
  /// Open a checkpoint window every N unit boundaries during oracle passes
  /// (0 disables recording). Each window archives the warm state plus the
  /// op tape of its N units, so the stride bounds both disk usage and the
  /// worst-case tape replay measure_units pays per selected unit.
  std::uint64_t checkpoint_stride = 2;
  /// Worker threads for run_batch (0 = global default from
  /// hardware_concurrency, overridable via the CLI --threads flag).
  std::size_t threads = 0;
};

struct LabRun {
  ThreadProfile profile;
  workloads::WorkloadResult result;  ///< zeroed when loaded from cache
  bool from_cache = false;
  std::string cache_path;  ///< on-disk cache file this run hit or populated
};

/// One configuration of a batch: a (workload, graph input, seed) triple.
/// An unset seed uses the lab's configured seed.
struct BatchItem {
  std::string workload;
  std::string graph_input = "Google";
  std::optional<std::uint64_t> seed;
};

/// Result of measuring a selected subset of sampling units (measure_units).
struct MeasureResult {
  /// One record per requested unit that exists in the run, ascending by
  /// unit id — bit-identical to the oracle pass's records for those units.
  std::vector<UnitRecord> records;
  bool used_checkpoints = false;   ///< at least one archive was restored
  bool fallback = false;           ///< a bad archive forced re-execution
  std::size_t checkpoints_restored = 0;
  std::uint64_t fast_forwarded_instrs = 0;
};

class WorkloadLab {
 public:
  explicit WorkloadLab(LabConfig cfg = {});

  /// Profile `workload_name` ("wc_sp", …) on `graph_input` (Table II name,
  /// ignored by non-graph workloads), cached on disk by every parameter of
  /// the run. Same-key calls are single-flighted on a lock that exists only
  /// while a run holds it: one runs the oracle pass, the others decode its
  /// published profile (lab.batch_dedup counts them).
  LabRun run(const std::string& workload_name,
             const std::string& graph_input = "Google");

  /// Run every item, concurrently on the thread pool (cfg.threads workers;
  /// 0 = global default), through run()'s single-flight. Results are
  /// returned in item order and are bit-identical to calling run() serially
  /// per item.
  std::vector<LabRun> run_batch(const std::vector<BatchItem>& items);

  /// Measure only the given sampling units of a configuration. When a prior
  /// oracle pass left checkpoint archives (see core/checkpoint.h), each
  /// target is measured by restoring the nearest archive at or before it
  /// and re-executing the archived op tape through the unit — the workload
  /// never runs, so the wall-clock cost is O(selected units) rather than
  /// O(run length). Results are bit-identical to the oracle pass's records
  /// for those units. A corrupt or stale archive is never trusted:
  /// measurement falls back to exact cold re-execution from unit 0
  /// (MeasureResult::fallback) and still returns correct numbers.
  MeasureResult measure_units(const std::string& workload_name,
                              const std::string& graph_input,
                              const std::vector<std::uint64_t>& units);

  /// This run's private checkpoint directory (where the recorder publishes
  /// and the replayer scans).
  std::string checkpoint_dir_for(const std::string& workload_name,
                                 const std::string& graph_input,
                                 std::uint64_t seed) const;

  /// Build a cluster matching this lab's configuration (for callers that
  /// need custom profiling setups, e.g. the trace benches).
  exec::ClusterConfig cluster_config() const;

  const LabConfig& config() const { return cfg_; }

 private:
  std::string cache_path(const std::string& workload_name,
                         const std::string& graph_input,
                         std::uint64_t seed) const;
  std::string cache_key(const std::string& workload_name,
                        const std::string& graph_input,
                        std::uint64_t seed) const;
  /// try-load → single-flight lock → re-check → oracle pass → publish.
  LabRun run_config(const std::string& workload_name,
                    const std::string& graph_input, std::uint64_t seed);
  std::optional<LabRun> try_load_cached(const std::string& path,
                                        const std::string& workload_name,
                                        const std::string& graph_input);

  LabConfig cfg_;
  std::string cache_dir_;
  std::string checkpoint_root_;
};

}  // namespace simprof::core
