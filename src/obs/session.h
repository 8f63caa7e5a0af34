// Run session: the lifecycle every front end (the simprof CLI, each bench)
// wraps around one run. Front ends parse their own flags; the session acts
// on the parsed values. The constructor begins the run ledger, applies the
// log level, arms tracing when a trace file or a manifest will be written
// (buffering events only for the trace file; the manifest's span rollup is
// built as spans close) and optionally starts the heartbeat.
// flush() writes the trace, metrics snapshot and manifest exactly once.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/heartbeat.h"
#include "obs/log.h"

namespace simprof::obs {

struct RunSessionConfig {
  std::string tool;               ///< manifest "tool" ("simprof", …)
  std::string verb;               ///< manifest "verb" (subcommand, bench)
  std::vector<std::string> args;  ///< raw arguments, recorded verbatim
  /// Schema versions for the manifest's build block (cache, checkpoint —
  /// set by the front end; obs knows neither).
  std::map<std::string, std::uint64_t> schemas;
  std::optional<LogLevel> log_level;
  std::string metrics_out;   ///< empty → no metrics file
  std::string trace_out;     ///< empty → no trace file
  std::string manifest_out;  ///< empty → default_manifest_path(verb)
  bool no_manifest = false;
  std::optional<HeartbeatConfig> heartbeat;  ///< unset → no heartbeat
};

class RunSession {
 public:
  explicit RunSession(const RunSessionConfig& config);
  /// flush(0), a no-op when flush already ran.
  ~RunSession();

  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  /// Record `exit_code`, stop the heartbeat and tracing, and write every
  /// requested output. Only the first call acts; concurrent callers (a
  /// signal watcher, the exiting main thread) wait until it has finished.
  void flush(int exit_code);

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::mutex flush_mu_;
  bool flushed_ = false;
};

}  // namespace simprof::obs
