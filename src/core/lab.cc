#include "core/lab.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>

#include "core/checkpoint.h"
#include "obs/obs.h"
#include "support/assert.h"
#include "support/serialize.h"
#include "support/single_flight.h"
#include "support/thread_pool.h"

namespace simprof::core {

namespace {
/// Per-cache-key locks of run_config: each lives while a run holds it.
support::SingleFlight<std::string, std::mutex> key_locks;

/// One stale-checkpoint sweep per root until another root is swept.
support::SingleFlight<std::string, const std::size_t> sweeps;
}  // namespace

std::size_t prune_stale_checkpoint_dirs(const std::string& root) {
  static obs::Counter& pruned = obs::metrics().counter("ckpt.pruned");
  std::size_t removed = 0;
  // A missing/unreadable root leaves `ec` set: nothing to prune.
  std::error_code ec;
  for (std::filesystem::directory_iterator it(root, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::filesystem::directory_entry& entry = *it;
    std::error_code dec;
    if (!entry.is_directory(dec) || dec) continue;
    // Checkpoint dirs are named after their cache key, which ends in the
    // schema suffix "-v<digits>". Anything else in the root is left alone.
    const std::string name = entry.path().filename().string();
    const std::size_t vpos = name.rfind("-v");
    if (vpos == std::string::npos) continue;
    const char* first = name.data() + vpos + 2;
    const char* last = name.data() + name.size();
    std::uint64_t schema = 0;
    const auto [end_ptr, err] = std::from_chars(first, last, schema);
    if (err != std::errc{} || end_ptr != last) continue;
    if (schema == kLabCacheSchema) continue;
    std::error_code rec;
    std::filesystem::remove_all(entry.path(), rec);
    if (rec) {
      SIMPROF_LOG(kWarn) << "lab: failed to prune stale checkpoint dir "
                         << entry.path().string() << ": " << rec.message();
      continue;
    }
    ++removed;
    pruned.increment();
  }
  if (removed > 0) {
    SIMPROF_LOG(kWarn) << "lab: pruned " << removed
                       << " stale checkpoint dir(s) under " << root
                       << " (schema != v" << kLabCacheSchema << ")";
  }
  return removed;
}

WorkloadLab::WorkloadLab(LabConfig cfg) : cfg_(cfg) {
  if (!cfg_.cache_dir.empty()) {
    cache_dir_ = cfg_.cache_dir;
  } else if (const char* env = std::getenv("SIMPROF_CACHE_DIR")) {
    cache_dir_ = env;
  } else {
    cache_dir_ = ".simprof_cache";
  }
  if (!cfg_.checkpoint_dir.empty()) {
    checkpoint_root_ = cfg_.checkpoint_dir;
  } else if (const char* env = std::getenv("SIMPROF_CHECKPOINT_DIR")) {
    checkpoint_root_ = env;
  } else {
    checkpoint_root_ =
        (std::filesystem::path(cache_dir_) / "ckpt").string();
  }
}

exec::ClusterConfig WorkloadLab::cluster_config() const {
  exec::ClusterConfig cc;
  cc.memory.num_cores = cfg_.num_cores;
  cc.seed = cfg_.seed;
  cc.unit_instrs = cfg_.unit_instrs;
  cc.snapshot_interval = std::max<std::uint64_t>(cfg_.unit_instrs / 10, 1);
  return cc;
}

std::string WorkloadLab::cache_key(const std::string& workload_name,
                                   const std::string& graph_input,
                                   std::uint64_t seed) const {
  std::ostringstream key;
  key << workload_name << '-' << graph_input << "-s" << cfg_.scale << "-seed"
      << seed << "-c" << cfg_.num_cores << "-g"
      << cfg_.graph_scale_override << "-u" << cfg_.unit_instrs << "-v"
      << kLabCacheSchema;
  return key.str();
}

std::string WorkloadLab::cache_path(const std::string& workload_name,
                                    const std::string& graph_input,
                                    std::uint64_t seed) const {
  return (std::filesystem::path(cache_dir_) /
          (cache_key(workload_name, graph_input, seed) + ".sprf"))
      .string();
}

std::string WorkloadLab::checkpoint_dir_for(const std::string& workload_name,
                                            const std::string& graph_input,
                                            std::uint64_t seed) const {
  return (std::filesystem::path(checkpoint_root_) /
          cache_key(workload_name, graph_input, seed))
      .string();
}

std::optional<LabRun> WorkloadLab::try_load_cached(
    const std::string& path, const std::string& workload_name,
    const std::string& graph_input) {
  static obs::Counter& hits = obs::metrics().counter("lab.cache_hits");
  static obs::Counter& corrupt = obs::metrics().counter("lab.cache_corrupt");
  static obs::QuantileHistogram& load_ms =
      obs::metrics().quantile_histogram("lab.cache_load_ms");
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // A cache file that fails to decode — bad magic, version skew, truncation
  // from a killed writer, bit rot — is a cache miss, never a crash: the
  // oracle pass regenerates and overwrites it.
  try {
    obs::ObsSpan load_span("lab.cache_load", {{"workload", workload_name}});
    const auto t0 = std::chrono::steady_clock::now();
    LabRun r;
    r.profile = ThreadProfile::load(in);
    load_ms.observe(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    r.from_cache = true;
    r.cache_path = path;
    hits.increment();
    SIMPROF_LOG(kInfo) << "lab: cache hit " << workload_name << "/"
                       << graph_input << " <- " << path << " ("
                       << r.profile.num_units() << " units)";
    return r;
  } catch (const ContractViolation& e) {
    corrupt.increment();
    SIMPROF_LOG(kWarn) << "lab: corrupt cache file " << path << " ("
                       << e.what() << "), treating as miss";
    in.close();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return std::nullopt;
  }
}

LabRun WorkloadLab::run(const std::string& workload_name,
                        const std::string& graph_input) {
  return run_config(workload_name, graph_input, cfg_.seed);
}

LabRun WorkloadLab::run_config(const std::string& workload_name,
                               const std::string& graph_input,
                               std::uint64_t seed) {
  static obs::Counter& misses = obs::metrics().counter("lab.cache_misses");
  static obs::Counter& dedup = obs::metrics().counter("lab.batch_dedup");
  const std::string path = cache_path(workload_name, graph_input, seed);
  if (cfg_.use_cache) {
    if (auto r = try_load_cached(path, workload_name, graph_input)) {
      return std::move(*r);
    }
  }

  // One oracle pass per cache key across batches, labs and threads: the lock
  // covers the re-check, the run and the .tmp/rename publish, so a concurrent
  // caller either waits and decodes the published profile (a dedup) or runs.
  std::shared_ptr<std::mutex> key_lock;
  std::unique_lock<std::mutex> flight;
  if (cfg_.use_cache) {
    key_lock = key_locks.get(path, [] { return std::mutex(); });
    flight = std::unique_lock<std::mutex>(*key_lock);
    if (auto r = try_load_cached(path, workload_name, graph_input)) {
      dedup.increment();
      SIMPROF_LOG(kDebug) << "lab: single-flight dedup " << workload_name
                          << "/" << graph_input << " <- " << path;
      return std::move(*r);
    }
  }
  misses.increment();
  SIMPROF_LOG(kInfo) << "lab: cache miss " << workload_name << "/"
                     << graph_input << " scale=" << cfg_.scale
                     << " seed=" << seed << ", running oracle pass";

  const workloads::WorkloadInfo& info = workloads::workload(workload_name);
  exec::ClusterConfig cc = cluster_config();
  cc.seed = seed;
  exec::Cluster cluster(cc);
  SamplingManager manager(cluster.methods());
  cluster.set_profiling_hook(&manager);

  // The oracle pass doubles as the checkpoint producer: every stride-th
  // unit boundary opens a window that snapshots the warm simulation state
  // and records the profiled core's op tape, so measure_units can later
  // measure any unit in O(selected units) instead of O(run length).
  std::optional<CheckpointRecorder> recorder;
  if (cfg_.use_cache && cfg_.checkpoint_stride > 0) {
    // Recorder startup also sweeps archives recorded under an older cache
    // schema out of the shared root — the replayer would reject them anyway.
    sweeps.get(checkpoint_root_,
               [&] { return prune_stale_checkpoint_dirs(checkpoint_root_); });
    recorder.emplace(checkpoint_dir_for(workload_name, graph_input, seed),
                     cache_key(workload_name, graph_input, seed),
                     cfg_.checkpoint_stride);
    cluster.set_unit_governor(&*recorder);
    cluster.set_tape_sink(&*recorder);
  }

  static obs::QuantileHistogram& run_ms =
      obs::metrics().quantile_histogram("lab.run_ms");
  LabRun r;
  {
    obs::ObsSpan run_span("lab.workload_run", {{"workload", workload_name},
                                               {"input", graph_input}});
    const auto t0 = std::chrono::steady_clock::now();
    r.result = info.run(cluster, {.scale = cfg_.scale,
                                  .seed = seed,
                                  .graph_input = graph_input,
                                  .graph_scale_override =
                                      cfg_.graph_scale_override});
    if (recorder) recorder->finalize();  // publish the trailing window
    r.profile = manager.take_profile();
    run_ms.observe(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  SIMPROF_ENSURES(r.profile.num_units() > 0,
                  "workload produced no sampling units: " + workload_name);

  if (cfg_.use_cache) {
    obs::ObsSpan save_span("lab.cache_save", {{"workload", workload_name}});
    std::filesystem::create_directories(cache_dir_);
    // A run killed mid-write leaves only a .tmp that no reader ever opens:
    // the published name is either absent or a complete profile.
    SIMPROF_EXPECTS(
        publish_file(path, [&](std::ostream& out) { r.profile.save(out); }),
        "cannot write profile cache");
    r.cache_path = path;
    SIMPROF_LOG(kDebug) << "lab: cached " << r.profile.num_units()
                        << " units -> " << path;
  }
  return r;
}

MeasureResult WorkloadLab::measure_units(
    const std::string& workload_name, const std::string& graph_input,
    const std::vector<std::uint64_t>& units) {
  static obs::Counter& ff_insts =
      obs::metrics().counter("lab.fast_forward_skipped_insts");
  static obs::Counter& fallbacks = obs::metrics().counter("ckpt.fallback");
  const std::uint64_t seed = cfg_.seed;
  const std::string key = cache_key(workload_name, graph_input, seed);
  const workloads::WorkloadInfo& info = workloads::workload(workload_name);

  obs::ObsSpan span("lab.measure_units", {{"workload", workload_name},
                                          {"input", graph_input},
                                          {"units", units.size()}});
  exec::ClusterConfig cc = cluster_config();
  cc.seed = seed;

  // Fast path: the oracle pass left archives (state + op tape per window);
  // replay them through the target units on a fresh cluster. The workload
  // itself never runs, so the cost is O(selected units).
  bool fell_back = false;
  {
    CheckpointReplayer replayer(
        checkpoint_dir_for(workload_name, graph_input, seed), key, units);
    if (replayer.has_archives()) {
      try {
        replayer.replay(cc);
        MeasureResult m;
        m.records = replayer.take_records();
        m.checkpoints_restored = replayer.restores();
        m.used_checkpoints = replayer.restores() > 0;
        m.fast_forwarded_instrs = replayer.fast_forwarded_instrs();
        ff_insts.add(m.fast_forwarded_instrs);
        return m;
      } catch (const SerializeError& e) {
        // A bad archive must never produce a wrong number: abandon the
        // polluted cluster entirely and re-measure cold, which is slower
        // but exact.
        fallbacks.increment();
        fell_back = true;
        SIMPROF_LOG(kWarn) << "lab: checkpoint replay failed for "
                           << workload_name << "/" << graph_input << " ("
                           << e.what() << "), falling back to re-execution";
      }
    }
  }

  // Cold path (no archives, or fallback from a corrupt one): run the
  // workload with units [0, max target] detailed so each target unit sees
  // exactly the oracle pass's cache state, then stop the profiled core.
  exec::Cluster cluster(cc);
  ColdMeasurer cold(units);
  cluster.set_profiling_hook(&cold);
  cluster.set_unit_governor(&cold);
  info.run(cluster, {.scale = cfg_.scale,
                     .seed = seed,
                     .graph_input = graph_input,
                     .graph_scale_override = cfg_.graph_scale_override});
  MeasureResult m;
  m.records = cold.take_records();
  m.fallback = fell_back;
  m.fast_forwarded_instrs =
      cluster.context(cc.profiled_core).skipped_instrs();
  ff_insts.add(m.fast_forwarded_instrs);
  return m;
}

std::vector<LabRun> WorkloadLab::run_batch(const std::vector<BatchItem>& items) {
  static obs::Counter& batches = obs::metrics().counter("lab.batch_runs");
  static obs::Counter& batch_items = obs::metrics().counter("lab.batch_items");
  static obs::Counter& batch_done =
      obs::metrics().counter("progress.batch_done");
  const std::size_t n = items.size();
  std::vector<LabRun> out(n);
  if (n == 0) return out;
  batches.increment();
  batch_items.add(n);

  obs::ObsSpan span("lab.run_batch", {{"items", n}});
  // Progress feed for the heartbeat: total published once, done ticks as
  // each item completes (observation only — never read back by the batch).
  obs::metrics().gauge("progress.batch_total").set(static_cast<double>(n));
  // Items sharing a cache key meet in run_config's per-key single-flight: one
  // runs the oracle pass and the others decode its published profile. The
  // pass queues no pool work, so a worker blocked on the key lock cannot
  // starve it.
  support::parallel_for(
      cfg_.threads, 0, n, 1, [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          out[i] = run_config(items[i].workload, items[i].graph_input,
                              items[i].seed.value_or(cfg_.seed));
          batch_done.increment();
        }
      });
  return out;
}

}  // namespace simprof::core
