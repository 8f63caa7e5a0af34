// Shared setup for the figure-reproduction benches.
//
// Every bench loads profiles through one WorkloadLab (disk-cached, so the
// oracle pass per configuration runs once across the whole suite), forms
// phases with the paper's defaults, and prints an aligned table plus a CSV
// block via support/table.h.
//
// Environment knobs:
//   SIMPROF_SCALE      — data-volume scale (default 1.0)
//   SIMPROF_CACHE_DIR  — profile cache directory (default .simprof_cache)
//
// Observability flags (every bench, stripped before any other parsing; the
// run itself is an obs::RunSession, see obs/session.h):
//   --log-level LEVEL  — trace|debug|info|warn|error|off
//   --metrics-out FILE — JSON metrics snapshot written at exit
//   --trace-out FILE   — Chrome trace events (Perfetto) written at exit
//   --manifest-out F   — run-manifest path (default: automatic under
//                        $SIMPROF_MANIFEST_DIR or .simprof_manifests/)
//   --no-manifest      — skip the run manifest
#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.h"
#include "core/checkpoint.h"
#include "obs/obs.h"

namespace simprof::bench {

/// Strips the obs flags out of argc/argv, so downstream parsers such as
/// google-benchmark never see them, and returns this bench's run-session
/// config (verb = argv[0]'s basename; $SIMPROF_SCALE goes to the manifest).
inline obs::RunSessionConfig strip_obs_flags(int& argc, char** argv) {
  obs::RunSessionConfig config;
  config.tool = "simprof-bench";
  config.verb = std::filesystem::path(argv[0]).filename().string();
  config.args.assign(argv + 1, argv + argc);
  config.schemas = {{"cache", core::kLabCacheSchema},
                    {"checkpoint", core::kCheckpointVersion}};
  // "--flag VALUE" (consumes the next arg) or "--flag=VALUE".
  auto take = [&](int& i, const std::string& flag, std::string& value) {
    const std::string arg = argv[i];
    if (arg.rfind(flag + "=", 0) == 0) {
      value = arg.substr(flag.size() + 1);
    } else if (arg == flag && i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    return true;
  };
  std::string level;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--no-manifest") {
      config.no_manifest = true;
    } else if (!take(i, "--log-level", level) &&
               !take(i, "--metrics-out", config.metrics_out) &&
               !take(i, "--trace-out", config.trace_out) &&
               !take(i, "--manifest-out", config.manifest_out)) {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  if (!level.empty() && !(config.log_level = obs::parse_log_level(level))) {
    std::cerr << "warning: ignoring unknown --log-level '" << level << "'\n";
  }
  if (const char* s = std::getenv("SIMPROF_SCALE")) {
    obs::ledger().set_config("scale", s);
  }
  return config;
}

/// A bench's run session (obs/session.h), opened from its obs flags. Its
/// destructor writes the manifest with exit code 0; a bench that can fail
/// runs through run_main instead.
struct ObsSession : obs::RunSession {
  ObsSession(int& argc, char** argv)
      : obs::RunSession(strip_obs_flags(argc, argv)) {}
};

/// Runs `body` on the stripped argv inside the bench's run session and
/// writes the manifest with body's return code.
template <typename Body>
int run_main(int argc, char** argv, Body&& body) {
  ObsSession session(argc, argv);
  const int rc = body(argc, argv);
  session.flush(rc);
  return rc;
}

/// Paper-order config names (Table I).
inline const std::vector<std::string>& config_names() {
  static const std::vector<std::string> names = {
      "sort_hp", "sort_sp", "wc_hp",    "wc_sp",    "grep_hp", "grep_sp",
      "bayes_hp", "bayes_sp", "cc_hp",  "cc_sp",    "rank_hp", "rank_sp"};
  return names;
}

/// The four graph configs of the input-sensitivity study (Figs. 12/13).
inline const std::vector<std::string>& graph_config_names() {
  static const std::vector<std::string> names = {"cc_hp", "cc_sp", "rank_hp",
                                                 "rank_sp"};
  return names;
}

inline core::LabConfig lab_config() {
  core::LabConfig cfg;
  if (const char* s = std::getenv("SIMPROF_SCALE")) cfg.scale = atof(s);
  // Figure benches sweep dozens of configurations and only consume the
  // profiles, so checkpoint recording (≈100MB of archives per oracle pass)
  // stays off here; perf_checkpoint re-enables it for its warm lab.
  cfg.checkpoint_stride = 0;
  return cfg;
}

/// Fetch the profiles for `names` on one graph input through lab.run_batch:
/// cache misses simulate concurrently on the thread pool while hits decode
/// alongside them. Results come back in name order and are bit-identical to
/// serial lab.run() calls.
inline std::vector<core::LabRun> run_configs(
    core::WorkloadLab& lab, const std::vector<std::string>& names,
    const std::string& graph_input = "Google") {
  std::vector<core::BatchItem> items;
  items.reserve(names.size());
  for (const auto& name : names) items.push_back({name, graph_input, {}});
  return lab.run_batch(items);
}

/// The scaled SECOND baseline: the paper uses 10 s and the whole environment
/// is scaled 1/100, so SECOND is 0.1 virtual seconds at the 2 GHz virtual
/// clock.
inline constexpr double kSecondInterval = 0.1;
inline constexpr double kClockGhz = 2.0;

/// Fig. 7 sample size (paper: 20 simulation points).
inline constexpr std::size_t kFig7SampleSize = 20;

/// Seeds used to average the probabilistic techniques in Fig. 7.
inline constexpr int kErrorRepetitions = 7;

}  // namespace simprof::bench
