// Cold oracle pass of every Table I configuration (run via
// `bench/run.sh oracle` → BENCH_oracle.json).
//
// A cold `simprof profile` or daemon request is almost all oracle pass, and
// the repository benchmark's cold_profile workload runs only four of the
// twelve configurations. This driver times all twelve. Each pass runs in a
// fresh child process (inputs are memoized per process, so a shared process
// would run every pass after the first on warm inputs) with the lab cache
// and checkpoint recording off, which is what `simprof profile
// --checkpoint-stride 0` runs. The parent reads the child's CPU time and
// peak RSS from wait4 and times its wall clock. Each configuration runs
// kReps times, configurations interleaved, and reports the median. The
// scale is $SIMPROF_SCALE (default 1), the seed 42.
//
// Flags (after the common obs flags): --out FILE.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/lab.h"
#include "support/table.h"

namespace {

using namespace simprof;

constexpr int kReps = 3;

struct Pass {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Runs `config`'s oracle pass in a child process; returns false if the
/// child failed.
bool run_pass(const std::string& config, Pass& pass) {
  const auto start = std::chrono::steady_clock::now();
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    int rc = 0;
    try {
      core::LabConfig cfg = bench::lab_config();
      cfg.use_cache = false;
      core::WorkloadLab lab(cfg);
      const core::LabRun run = lab.run(config, "Google");
      rc = run.profile.num_units() > 0 ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perf_oracle: %s: %s\n", config.c_str(), e.what());
      rc = 1;
    }
    _exit(rc);  // no atexit handlers: the manifest is the parent's
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) return false;
  pass.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  pass.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  pass.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int run_oracle(int argc, char** argv) {
  std::string out = "BENCH_oracle.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }
  const std::vector<std::string>& configs = bench::config_names();
  const double scale = bench::lab_config().scale;
  const unsigned cores = std::thread::hardware_concurrency();

  std::vector<std::vector<Pass>> passes(configs.size());
  int failed = 0;
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      Pass pass;
      if (!run_pass(configs[c], pass)) {
        std::cerr << "perf_oracle: " << configs[c] << " failed\n";
        ++failed;
      }
      passes[c].push_back(pass);
    }
  }

  std::cout << "Cold oracle pass per configuration (scale " << scale
            << ", seed 42, median of " << kReps
            << ", host cores " << cores << ")\n";
  Table table({"config", "cpu_s", "wall_s", "peak_rss_mb"});
  std::ostringstream rows;
  double total_cpu = 0.0, total_wall = 0.0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    std::vector<double> cpu, wall, rss;
    for (const Pass& p : passes[c]) {
      cpu.push_back(p.cpu_s);
      wall.push_back(p.wall_s);
      rss.push_back(p.peak_rss_mb);
    }
    const double cpu_m = median(cpu), wall_m = median(wall);
    const double rss_max = *std::max_element(rss.begin(), rss.end());
    total_cpu += cpu_m;
    total_wall += wall_m;
    table.row({configs[c], Table::num(cpu_m, 3), Table::num(wall_m, 3),
               Table::num(rss_max, 1)});
    rows << "  {\"config\": \"" << configs[c] << "\", \"cpu_s\": " << cpu_m
         << ", \"wall_s\": " << wall_m << ", \"peak_rss_mb\": " << rss_max
         << ", \"cpu_s_reps\": [";
    for (std::size_t i = 0; i < cpu.size(); ++i) {
      rows << (i ? ", " : "") << cpu[i];
    }
    rows << "]}" << (c + 1 < configs.size() ? "," : "") << "\n";
  }
  table.row({"total", Table::num(total_cpu, 3), Table::num(total_wall, 3), ""});
  table.print(std::cout);

  obs::ledger().set_quality("oracle_total_cpu_s", total_cpu);
  obs::ledger().set_quality("oracle_total_wall_s", total_wall);
  std::ofstream os(out);
  os << "{\n \"scale\": " << scale << ",\n \"seed\": 42"
     << ",\n \"reps\": " << kReps << ",\n \"host_cores\": " << cores
     << ",\n \"failed\": " << failed << ",\n \"configs\": [\n"
     << rows.str() << " ],\n \"total_cpu_s\": " << total_cpu
     << ",\n \"total_wall_s\": " << total_wall << "\n}\n";
  return failed == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run_oracle);
}
