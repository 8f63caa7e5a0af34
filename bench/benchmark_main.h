// Shared main for the google-benchmark perf binaries. The console reporter
// also keeps every run's real time, so a bench can derive its headline
// figures (speedups, contract deltas) itself: each one is recorded as a
// manifest quality figure and printed after the run, and `bench/run.sh`
// needs no per-bench fold step.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"

namespace simprof::bench {

/// Real time per iteration (the benchmark's time unit) of each successful
/// non-aggregate run, keyed by benchmark name.
using RunTimes = std::map<std::string, double>;

class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  CapturingReporter() : benchmark::ConsoleReporter(OO_None) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        times[run.benchmark_name()] = run.GetAdjustedRealTime();
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }
  RunTimes times;
};

/// Records `value` as manifest quality figure `name` and prints it.
inline void record_figure(const std::string& name, double value) {
  obs::ledger().set_quality(name, value);
  std::printf("%s %.2f\n", name.c_str(), value);
}

/// Records baseline time / fast time as figure `name` when both runs ran (a
/// --benchmark_filter may drop either).
inline void record_speedup(const RunTimes& times, const std::string& name,
                           const std::string& fast,
                           const std::string& baseline) {
  const auto f = times.find(fast);
  const auto b = times.find(baseline);
  if (f != times.end() && b != times.end() && f->second > 0.0) {
    record_figure(name, b->second / f->second);
  }
}

/// Runs the registered benchmarks inside the bench's run session, then
/// hands the run times to `derive` to record the bench's figures.
inline int benchmark_main(
    int argc, char** argv,
    const std::function<void(const RunTimes&)>& derive = {}) {
  return run_main(argc, argv, [&](int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (derive) derive(reporter.times);
    return 0;
  });
}

}  // namespace simprof::bench
