// Saturation-curve bench for the service daemon (run via
// `bench/run.sh service` → BENCH_service.json).
//
// Unlike the perf_* google-benchmark suites this is a custom sweep driver:
// the quantity under test is the whole daemon's throughput knee, not a
// single timed region. Two phases, all against in-process ServiceServer
// instances sharing one warm lab cache (the oracle pass runs once, during
// pre-warm, so every swept request measures dispatch + decode + analysis —
// the daemon's steady-state cost):
//
//   1. Ticket sweep — each fixed ticket count 1..max and the default server
//      (tickets = 0: one per core) under identical offered load. The
//      per-level QPS is the measured saturation curve and its argmax the
//      best fixed level C*.
//   2. Confirmation — the default server and C* alone, in fresh
//      interleaved passes. The argmax of the sweep's noisy medians is
//      biased high (winner's curse), so the gate compares these two fresh
//      medians instead: the default must reach 95% of C*'s QPS or the
//      bench exits non-zero.
//   3. Offered-load sweep — QPS / p50 / p99 versus offered concurrency on
//      one resident default server, the classic hockey-stick latency curve.
//
// Flags (after the common obs flags): --out FILE, --scale F, --max-level N,
// --requests N (per client, ticket sweep).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "service/loadgen.h"
#include "service/server.h"

namespace {

using namespace simprof;

constexpr const char* kWorkload = "grep_sp";
constexpr const char* kInput = "Google";

struct BenchOptions {
  std::string out = "BENCH_service.json";
  /// Request cost must dwarf socket/dispatch overhead or the saturation
  /// curve is all noise; 0.4 gives ~2–3 ms of decode + analysis per request.
  double scale = 0.4;
  std::size_t max_level = 8;
  std::size_t requests_per_client = 200;
};

struct SweepPoint {
  std::size_t level = 0;     ///< ticket count (ticket sweep)
  std::size_t offered = 0;   ///< clients × inflight (offered-load sweep)
  double median_qps = 0.0;   ///< median across sweep passes (ticket sweep)
  std::vector<service::LoadgenReport> reports;  ///< one per pass
};

core::LabConfig make_lab_config(const BenchOptions& opt,
                                const std::string& cache_dir) {
  core::LabConfig lab = bench::lab_config();
  lab.scale = opt.scale;
  lab.graph_scale_override = 12;
  lab.cache_dir = cache_dir;
  lab.checkpoint_stride = 0;
  return lab;
}

service::LoadgenConfig make_load(const std::string& socket, std::size_t clients,
                                 std::size_t inflight, std::size_t requests,
                                 const BenchOptions& opt) {
  service::LoadgenConfig lg;
  lg.socket_path = socket;
  lg.clients = clients;
  lg.inflight_per_client = inflight;
  lg.requests_per_client = requests;
  lg.workloads = {kWorkload};
  lg.input = kInput;
  lg.scale = opt.scale;
  lg.seed = 42;
  lg.analyze = true;
  lg.sample_n = 8;
  return lg;
}

/// Run one (server config, load) pair to completion; the server is fully
/// drained and joined before the report is returned.
service::LoadgenReport run_once(service::ServiceConfig cfg,
                                const service::LoadgenConfig& load) {
  service::ServiceServer server(std::move(cfg));
  server.start();
  service::LoadgenReport report = service::run_loadgen(load);
  server.request_stop();
  server.wait();
  return report;
}

void write_report(std::ostream& os, const service::LoadgenReport& r) {
  os << "{\"completed\": " << r.completed << ", \"rejected\": " << r.rejected
     << ", \"errors\": " << r.errors << ", \"elapsed_sec\": " << r.elapsed_sec
     << ", \"qps\": " << r.qps << ", \"p50_ms\": " << r.p50_ms
     << ", \"p90_ms\": " << r.p90_ms << ", \"p99_ms\": " << r.p99_ms << "}";
}

void write_sweep_point(std::ostream& os, const SweepPoint& pt) {
  os << "{\"level\": " << pt.level << ", \"median_qps\": " << pt.median_qps
     << ", \"passes\": [";
  for (std::size_t p = 0; p < pt.reports.size(); ++p) {
    if (p > 0) os << ", ";
    write_report(os, pt.reports[p]);
  }
  os << "]}";
}

}  // namespace

int run_sweeps(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_service: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      opt.out = next("--out");
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      opt.scale = std::atof(next("--scale"));
    } else if (std::strcmp(argv[i], "--max-level") == 0) {
      opt.max_level = static_cast<std::size_t>(
          std::strtoull(next("--max-level"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      opt.requests_per_client = static_cast<std::size_t>(
          std::strtoull(next("--requests"), nullptr, 10));
    } else {
      std::fprintf(stderr, "perf_service: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  opt.max_level = std::clamp<std::size_t>(opt.max_level, 2,
                                          service::kMaxTickets);

  namespace fs = std::filesystem;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("simprof_perf_service_" + std::to_string(::getpid()));
  fs::create_directories(scratch);
  const std::string socket = (scratch / "sock").string();
  const std::string cache_dir = (scratch / "cache").string();

  obs::ledger().set_config("workload", kWorkload);
  obs::ledger().set_config("input", kInput);
  obs::ledger().set_config("scale", std::to_string(opt.scale));
  obs::ledger().set_config("max_level", std::to_string(opt.max_level));

  service::ServiceConfig base;
  base.socket_path = socket;
  base.lab = make_lab_config(opt, cache_dir);
  base.max_queue = 256;
  base.client_max_inflight = 16;
  const auto with_tickets = [&](std::size_t tickets) {
    service::ServiceConfig cfg = base;
    cfg.tickets = tickets;
    return cfg;
  };

  // Pre-warm: one request pays the oracle pass so every swept request below
  // measures the daemon's steady state (cache decode + analysis), not a
  // one-time simulation.
  std::fprintf(stderr, "perf_service: pre-warming lab cache...\n");
  run_once(with_tickets(1), make_load(socket, 1, 1, 1, opt));

  // Phase 1: the ticket sweep at constant offered load. Offered concurrency
  // (clients × inflight) exceeds every swept level so each level runs
  // saturated and the per-level QPS is the curve itself. Five passes per
  // level, of which the median counts, since single passes are noisy. Each
  // pass starts one candidate later than the one before, so drift in host
  // speed favours no candidate.
  constexpr std::size_t kSweepPasses = 5;
  const std::size_t sweep_clients = opt.max_level + 2;
  const std::size_t sweep_inflight = 2;

  // Unmeasured warmup at the sweep's load: lets the allocator, page cache
  // and CPU settle, so the first measured run isn't systematically slower
  // than the rest.
  run_once(with_tickets(0), make_load(socket, sweep_clients, sweep_inflight,
                                      opt.requests_per_client, opt));

  // points[0] is the default server (tickets = 0, resolved to the host's
  // core count), points[l] fixed level l.
  std::vector<SweepPoint> points(opt.max_level + 1);
  points[0].level = service::ServiceServer(with_tickets(0)).config().tickets;
  for (std::size_t level = 1; level <= opt.max_level; ++level) {
    points[level].level = level;
  }
  for (std::size_t pass = 0; pass < kSweepPasses; ++pass) {
    for (std::size_t k = 0; k < points.size(); ++k) {
      const std::size_t idx = (k + pass) % points.size();
      const service::LoadgenReport report = run_once(
          with_tickets(idx),
          make_load(socket, sweep_clients, sweep_inflight,
                    opt.requests_per_client, opt));
      std::fprintf(stderr,
                   "perf_service: %s %zu (pass %zu) -> %.1f qps "
                   "(p99 %.1f ms)\n",
                   idx == 0 ? "default tickets" : "fixed tickets",
                   points[idx].level, pass + 1, report.qps, report.p99_ms);
      points[idx].reports.push_back(report);
    }
  }
  const auto median_qps = [](const std::vector<service::LoadgenReport>& rs) {
    std::vector<double> qps;
    for (const auto& r : rs) qps.push_back(r.qps);
    std::nth_element(qps.begin(), qps.begin() + qps.size() / 2, qps.end());
    return qps[qps.size() / 2];
  };
  for (auto& pt : points) pt.median_qps = median_qps(pt.reports);
  const SweepPoint& dflt = points[0];
  const auto best = std::max_element(
      points.begin() + 1, points.end(),
      [](const SweepPoint& a, const SweepPoint& b) {
        return a.median_qps < b.median_qps;
      });
  std::fprintf(stderr,
               "perf_service: sweep: default (%zu tickets) %.1f qps, best "
               "fixed %zu tickets %.1f qps\n",
               dflt.level, dflt.median_qps, best->level, best->median_qps);

  // Phase 2: confirmation. The default and C* run against each other in
  // fresh passes, alternating which goes first, so neither inherits the
  // sweep's selection bias or a drift in host speed.
  constexpr std::size_t kConfirmPasses = 7;
  SweepPoint confirm_default;
  SweepPoint confirm_best;
  confirm_default.level = dflt.level;
  confirm_best.level = best->level;
  for (std::size_t pass = 0; pass < kConfirmPasses; ++pass) {
    for (std::size_t k = 0; k < 2; ++k) {
      const bool is_default = (k + pass) % 2 == 0;
      SweepPoint& pt = is_default ? confirm_default : confirm_best;
      const service::LoadgenReport report = run_once(
          with_tickets(is_default ? 0 : best->level),
          make_load(socket, sweep_clients, sweep_inflight,
                    opt.requests_per_client, opt));
      std::fprintf(stderr,
                   "perf_service: confirm %s %zu (pass %zu) -> %.1f qps\n",
                   is_default ? "default tickets" : "fixed tickets", pt.level,
                   pass + 1, report.qps);
      pt.reports.push_back(report);
    }
  }
  confirm_default.median_qps = median_qps(confirm_default.reports);
  confirm_best.median_qps = median_qps(confirm_best.reports);
  const double ratio =
      confirm_best.median_qps > 0.0
          ? confirm_default.median_qps / confirm_best.median_qps
          : 0.0;
  const bool within_5pct = ratio >= 0.95;
  std::fprintf(stderr,
               "perf_service: confirm: default (%zu tickets) %.1f qps vs "
               "fixed %zu tickets %.1f qps -> %.3f (%s)\n",
               confirm_default.level, confirm_default.median_qps,
               confirm_best.level, confirm_best.median_qps, ratio,
               within_5pct ? "within 5%" : "MISSED 5%");

  // Phase 3: offered-load sweep on one resident default server — the
  // QPS / p50 / p99 hockey-stick as offered concurrency crosses the knee.
  std::vector<SweepPoint> offered_sweep;
  {
    service::ServiceServer server(with_tickets(0));
    server.start();
    for (std::size_t offered : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{6}, std::size_t{8},
                                std::size_t{12}}) {
      SweepPoint pt;
      pt.offered = offered;
      pt.reports.push_back(service::run_loadgen(
          make_load(socket, offered, 1, opt.requests_per_client, opt)));
      const auto& rep = pt.reports.back();
      std::fprintf(stderr,
                   "perf_service: offered %2zu -> %.1f qps, p50 %.1f ms, "
                   "p99 %.1f ms\n",
                   offered, rep.qps, rep.p50_ms, rep.p99_ms);
      offered_sweep.push_back(std::move(pt));
    }
    server.request_stop();
    server.wait();
  }

  // Headline figures for the manifest, so `simprof report` gates them. The
  // default server's last pass stands for its latency.
  const service::LoadgenReport& last = dflt.reports.back();
  obs::ledger().set_quality("service_requests",
                            static_cast<double>(last.completed));
  obs::ledger().set_quality("service_qps", confirm_default.median_qps);
  obs::ledger().set_quality("service_p99_ms", last.p99_ms);
  obs::ledger().set_quality("service_p50_ms", last.p50_ms);
  obs::ledger().set_quality("service_admission_level",
                            static_cast<double>(dflt.level));
  obs::ledger().set_quality("service_best_fixed_qps",
                            confirm_best.median_qps);

  std::ofstream os(opt.out);
  if (!os) {
    std::fprintf(stderr, "perf_service: cannot open %s\n", opt.out.c_str());
    return 2;
  }
  os << "{\n";
  const char* build_type = std::getenv("SIMPROF_BUILD_TYPE");
  const char* git_sha = std::getenv("SIMPROF_GIT_SHA");
  os << " \"build_type\": \"" << (build_type ? build_type : "unknown")
     << "\",\n";
  os << " \"git_sha\": \"" << (git_sha ? git_sha : "unknown") << "\",\n";
  os << " \"config\": {\"workload\": \"" << kWorkload << "\", \"input\": \""
     << kInput << "\", \"scale\": " << opt.scale
     << ", \"max_level\": " << opt.max_level
     << ", \"requests_per_client\": " << opt.requests_per_client
     << ", \"sweep_clients\": " << sweep_clients
     << ", \"sweep_inflight\": " << sweep_inflight << "},\n";

  os << " \"fixed_sweep\": [\n";
  for (std::size_t level = 1; level <= opt.max_level; ++level) {
    os << "  ";
    write_sweep_point(os, points[level]);
    os << (level < opt.max_level ? "," : "") << "\n";
  }
  os << " ],\n";
  os << " \"best_fixed\": {\"level\": " << best->level
     << ", \"qps\": " << best->median_qps << "},\n";
  os << " \"default\": ";
  write_sweep_point(os, dflt);
  os << ",\n \"confirm_default\": ";
  write_sweep_point(os, confirm_default);
  os << ",\n \"confirm_best_fixed\": ";
  write_sweep_point(os, confirm_best);
  os << ",\n \"default_vs_best_fixed\": " << ratio
     << ",\n \"within_5pct\": " << (within_5pct ? "true" : "false") << ",\n";

  os << " \"offered_load_sweep\": [\n";
  for (std::size_t i = 0; i < offered_sweep.size(); ++i) {
    os << "  {\"offered\": " << offered_sweep[i].offered << ", \"report\": ";
    write_report(os, offered_sweep[i].reports.front());
    os << "}" << (i + 1 < offered_sweep.size() ? "," : "") << "\n";
  }
  os << " ]\n}\n";
  os.close();

  std::error_code ec;
  fs::remove_all(scratch, ec);

  if (!within_5pct) {
    std::fprintf(stderr,
                 "perf_service: FAIL — default qps %.1f < 95%% of best "
                 "fixed qps %.1f\n",
                 confirm_default.median_qps, confirm_best.median_qps);
    return 1;
  }
  std::printf("perf_service: wrote %s (best fixed %zu tickets, %.1f qps; "
              "default %zu tickets, %.1f qps)\n",
              opt.out.c_str(), best->level, confirm_best.median_qps,
              dflt.level, confirm_default.median_qps);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run_sweeps);
}
