#include "obs/session.h"

#include <iostream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace simprof::obs {

RunSession::RunSession(const RunSessionConfig& config)
    : metrics_out_(config.metrics_out), trace_out_(config.trace_out) {
  if (config.log_level) set_log_level(*config.log_level);

  ledger().begin(config.tool, config.verb, config.args);
  for (const auto& [key, version] : config.schemas) {
    ledger().set_schema(key, version);
  }
  if (config.no_manifest) {
    ledger().disable();
  } else if (!config.manifest_out.empty()) {
    ledger().set_output_path(config.manifest_out);
  }

  // Tracing feeds the manifest's span rollup, which needs no event buffer,
  // and --trace-out, which does. It only observes, so arming it cannot
  // perturb results (obs/trace.h).
  if (!trace_out_.empty() || ledger().enabled()) {
    start_tracing(/*buffer_events=*/!trace_out_.empty());
  }

  if (config.heartbeat) start_heartbeat(*config.heartbeat);
}

RunSession::~RunSession() { flush(0); }

void RunSession::flush(int exit_code) {
  std::lock_guard<std::mutex> lock(flush_mu_);
  if (flushed_) return;
  flushed_ = true;
  ledger().set_exit_code(exit_code);
  stop_heartbeat();
  if (trace_enabled()) stop_tracing();
  if (!trace_out_.empty()) {
    write_trace(trace_out_);
    std::cerr << "wrote trace to " << trace_out_
              << " (load in Perfetto or chrome://tracing)\n";
  }
  if (!metrics_out_.empty()) {
    write_json_file(metrics_out_, metrics().to_json() + "\n", "metrics");
    std::cerr << "wrote metrics to " << metrics_out_ << '\n';
  }
  ledger().write();
}

}  // namespace simprof::obs
