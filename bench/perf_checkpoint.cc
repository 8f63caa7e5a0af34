// google-benchmark for checkpointed unit measurement (the SMARTS fast path):
// WorkloadLab::measure_units restoring warm SCKP archives recorded by the
// oracle pass, against the no-checkpoint baseline — the same measurement
// planned cold, which must run detailed simulation from unit 0 up to every
// target (O(run length)) instead of O(selected units).
//
// Run via `bench/run.sh checkpoint` to refresh BENCH_checkpoint.json.
// Both paths return bit-identical records (asserted once during setup);
// only wall clock changes with the archive availability.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "benchmark_main.h"
#include "core/lab.h"
#include "core/profile.h"
#include "core/sampling.h"

namespace {

using namespace simprof;

constexpr const char* kWorkload = "grep_sp";
constexpr const char* kInput = "Google";
constexpr std::uint64_t kSelectSeed = 42;

/// Private, freshly created root for this run's profile cache and archive
/// directories, under $SIMPROF_CACHE_DIR (default .simprof_cache). A cached
/// profile would skip the oracle pass and leave stale or no archives, so
/// the warm lab always records current-format ones. main() removes it.
const std::string& bench_root() {
  static const std::string root = [] {
    const char* env = std::getenv("SIMPROF_CACHE_DIR");
    const std::filesystem::path parent =
        env != nullptr && *env != '\0' ? env : ".simprof_cache";
    std::filesystem::create_directories(parent);
    std::string dir = (parent / "perf_checkpoint-XXXXXX").string();
    if (mkdtemp(dir.data()) == nullptr) {
      std::perror("perf_checkpoint: mkdtemp");
      std::exit(1);
    }
    return dir;
  }();
  return root;
}

/// Lab whose oracle pass records checkpoint archives (default stride;
/// bench::lab_config turns recording off for the figure benches).
core::WorkloadLab& warm_lab() {
  static core::WorkloadLab lab = [] {
    core::LabConfig cfg = bench::lab_config();
    cfg.checkpoint_stride = core::LabConfig{}.checkpoint_stride;
    cfg.cache_dir = bench_root() + "/cache";
    cfg.checkpoint_dir = bench_root() + "/ckpt";
    return core::WorkloadLab(cfg);
  }();
  return lab;
}

/// Baseline lab: same profile cache, but its archive directory is empty and
/// recording is disabled, so measure_units plans cold detailed segments from
/// unit 0 — the path every measurement paid before checkpointing.
core::WorkloadLab& cold_lab() {
  static core::WorkloadLab lab = [] {
    core::LabConfig cfg = bench::lab_config();
    cfg.checkpoint_stride = 0;
    cfg.cache_dir = bench_root() + "/cache";
    cfg.checkpoint_dir = bench_root() + "/ckpt_cold";
    return core::WorkloadLab(cfg);
  }();
  return lab;
}

/// Oracle profile for grep_sp; running it through warm_lab() also publishes
/// the checkpoint archives as a side effect (outside any timing loop).
const core::ThreadProfile& oracle() {
  static const core::ThreadProfile p = warm_lab().run(kWorkload, kInput).profile;
  return p;
}

/// SMARTS systematic selection of n units, mapped to unit ids.
std::vector<std::uint64_t> select_units(std::size_t n) {
  const core::SamplePlan plan = core::smarts_sample(oracle(), n, kSelectSeed);
  std::vector<std::uint64_t> units;
  units.reserve(plan.points.size());
  for (const auto& pt : plan.points) units.push_back(pt.unit_index);
  return units;
}

/// One-time contract check before any timing: the warm (restored) path and
/// the cold (re-executed) path must produce bitwise-equal unit records. A
/// speedup over wrong numbers would be meaningless.
void assert_paths_agree() {
  static const bool checked = [] {
    const auto units = select_units(5);
    const auto warm = warm_lab().measure_units(kWorkload, kInput, units);
    const auto cold = cold_lab().measure_units(kWorkload, kInput, units);
    if (!warm.used_checkpoints || warm.fallback || cold.used_checkpoints) {
      std::fprintf(stderr,
                   "perf_checkpoint: setup paths misconfigured (warm "
                   "restored=%zu fallback=%d, cold restored=%zu)\n",
                   warm.checkpoints_restored, warm.fallback ? 1 : 0,
                   cold.checkpoints_restored);
      std::exit(1);
    }
    if (warm.records.size() != cold.records.size()) {
      std::fprintf(stderr, "perf_checkpoint: record count mismatch\n");
      std::exit(1);
    }
    for (std::size_t i = 0; i < warm.records.size(); ++i) {
      const auto& a = warm.records[i].counters;
      const auto& b = cold.records[i].counters;
      if (warm.records[i].unit_id != cold.records[i].unit_id ||
          a.instructions != b.instructions || a.cycles != b.cycles ||
          a.line_touches != b.line_touches || a.l1_misses != b.l1_misses ||
          a.l2_misses != b.l2_misses || a.llc_misses != b.llc_misses ||
          a.migrations != b.migrations) {
        std::fprintf(stderr,
                     "perf_checkpoint: warm/cold records diverge at unit "
                     "%llu — checkpoint restore is NOT bit-exact\n",
                     static_cast<unsigned long long>(warm.records[i].unit_id));
        std::exit(1);
      }
    }
    return true;
  }();
  (void)checked;
}

// --- The speedup curve: measuring n selected units, warm vs cold.

void BM_MeasureCheckpointed(benchmark::State& state) {
  assert_paths_agree();
  const auto units = select_units(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto m = warm_lab().measure_units(kWorkload, kInput, units);
    benchmark::DoNotOptimize(m.records.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(units.size()));
}
BENCHMARK(BM_MeasureCheckpointed)->Arg(1)->Arg(2)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_MeasureNoCheckpoint(benchmark::State& state) {
  assert_paths_agree();
  const auto units = select_units(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto m = cold_lab().measure_units(kWorkload, kInput, units);
    benchmark::DoNotOptimize(m.records.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(units.size()));
}
BENCHMARK(BM_MeasureNoCheckpoint)->Arg(1)->Arg(2)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

// --- Context: the full oracle pass (profiling every unit with the disk
// cache bypassed) — what SMARTS-style sampling avoids re-paying entirely.

void BM_OraclePassFull(benchmark::State& state) {
  core::LabConfig cfg = bench::lab_config();
  cfg.use_cache = false;  // force a real simulation per iteration
  core::WorkloadLab lab(cfg);
  for (auto _ : state) {
    auto run = lab.run(kWorkload, kInput);
    benchmark::DoNotOptimize(run.profile.units.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OraclePassFull)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int rc = simprof::bench::benchmark_main(
      argc, argv, [](const simprof::bench::RunTimes& times) {
        for (const std::string n : {"1", "2", "5", "10"}) {
          simprof::bench::record_speedup(
              times, "speedup_vs_cold.units_" + n,
              "BM_MeasureCheckpointed/" + n, "BM_MeasureNoCheckpoint/" + n);
        }
      });
  std::error_code ec;
  std::filesystem::remove_all(bench_root(), ec);
  return rc;
}
