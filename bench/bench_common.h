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
// Observability flags (every bench, stripped before any other parsing):
//   --log-level LEVEL  — trace|debug|info|warn|error|off
//   --metrics-out FILE — JSON metrics snapshot written at exit
//   --trace-out FILE   — Chrome trace events (Perfetto) written at exit
//   --manifest-out F   — run-manifest path (default: automatic under
//                        $SIMPROF_MANIFEST_DIR or .simprof_manifests/)
//   --no-manifest      — skip the run manifest
#pragma once

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/checkpoint.h"
#include "obs/obs.h"

namespace simprof::bench {

/// RAII observability session for bench mains: strips the obs flags out of
/// argc/argv (so downstream parsers like google-benchmark never see them),
/// applies the log level, arms tracing, starts the run ledger, and writes
/// the requested trace / metrics files plus the run manifest on destruction.
class ObsSession {
 public:
  ObsSession(int& argc, char** argv) {
    std::vector<std::string> raw_args(argv + 1, argv + argc);
    bool no_manifest = false;
    std::string manifest_out;
    int keep = 1;
    for (int i = 1; i < argc; ++i) {
      std::string value;
      if (match(argc, argv, i, "--log-level", value)) {
        if (const auto level = obs::parse_log_level(value)) {
          obs::set_log_level(*level);
        } else {
          std::cerr << "warning: ignoring unknown --log-level '" << value
                    << "'\n";
        }
      } else if (match(argc, argv, i, "--metrics-out", value)) {
        metrics_out_ = value;
      } else if (match(argc, argv, i, "--trace-out", value)) {
        trace_out_ = value;
      } else if (match(argc, argv, i, "--manifest-out", value)) {
        manifest_out = value;
      } else if (std::strcmp(argv[i], "--no-manifest") == 0) {
        no_manifest = true;
      } else {
        argv[keep++] = argv[i];
      }
    }
    argc = keep;

    // Bench name from argv[0]'s basename — the manifest's verb.
    std::string verb = argv[0];
    if (const auto slash = verb.find_last_of('/');
        slash != std::string::npos) {
      verb = verb.substr(slash + 1);
    }
    obs::ledger().begin("simprof-bench", verb, std::move(raw_args));
    obs::ledger().set_schema("cache", core::kLabCacheSchema);
    obs::ledger().set_schema("checkpoint", core::kCheckpointVersion);
    if (no_manifest) obs::ledger().disable();
    if (!manifest_out.empty()) obs::ledger().set_output_path(manifest_out);
    if (const char* s = std::getenv("SIMPROF_SCALE")) {
      obs::ledger().set_config("scale", s);
    }
    // Span rollups need trace events, so a manifest-emitting bench always
    // collects spans (observation only — cannot perturb results).
    if (!trace_out_.empty() || obs::ledger().enabled()) obs::start_tracing();
  }

  ~ObsSession() {
    if (obs::trace_enabled()) obs::stop_tracing();
    if (!trace_out_.empty()) obs::write_trace(trace_out_);
    if (!metrics_out_.empty()) obs::metrics().write_json(metrics_out_);
    obs::ledger().write();
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  /// "--flag VALUE" (consumes the next arg) or "--flag=VALUE".
  static bool match(int argc, char** argv, int& i, const char* flag,
                    std::string& value) {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0) return false;
    if (argv[i][len] == '=') {
      value = argv[i] + len + 1;
      return true;
    }
    if (argv[i][len] == '\0' && i + 1 < argc) {
      value = argv[++i];
      return true;
    }
    return false;
  }

  std::string metrics_out_;
  std::string trace_out_;
};

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
