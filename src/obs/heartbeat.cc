#include "obs/heartbeat.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simprof::obs {
namespace {

std::atomic<bool> g_running{false};
std::atomic<bool> g_stop{false};
std::atomic<bool> g_flightrec_requested{false};

struct HeartbeatState {
  std::mutex mu;
  std::thread thread;
  HeartbeatConfig config;
  bool sigusr1_installed = false;
  struct sigaction prev_sigusr1 = {};
};

HeartbeatState& hb_state() {
  static HeartbeatState* s = new HeartbeatState;  // leaky
  return *s;
}

// Async-signal-safe: only sets the flag; the heartbeat thread does the I/O.
void sigusr1_handler(int) {
  g_flightrec_requested.store(true, std::memory_order_relaxed);
}

void write_flight_record(const std::string& path) {
  if (write_json_file(path, flight_record_json(), "flight record")) {
    SIMPROF_LOG(kInfo) << "heartbeat: flight record written to " << path;
  }
}

void heartbeat_main(HeartbeatConfig config) {
  std::string flightrec = config.flightrec_path;
  if (flightrec.empty()) {
    flightrec = "simprof-flightrec-" +
                std::to_string(static_cast<long>(::getpid())) + ".json";
  }
  Counter& units = metrics().counter("progress.units");
  Counter& batch_done = metrics().counter("progress.batch_done");
  Gauge& batch_total = metrics().gauge("progress.batch_total");

  const auto start = std::chrono::steady_clock::now();
  auto last_beat = start;
  std::uint64_t last_units = units.value();

  const auto poll = std::chrono::milliseconds(250);
  const auto period = std::chrono::duration<double>(
      config.period_s > 0.1 ? config.period_s : 0.1);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(poll);
    if (g_flightrec_requested.exchange(false, std::memory_order_relaxed)) {
      write_flight_record(flightrec);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now - last_beat < period) continue;
    const double dt = std::chrono::duration<double>(now - last_beat).count();
    const double elapsed = std::chrono::duration<double>(now - start).count();
    const std::uint64_t u = units.value();
    const double rate = dt > 0.0 ? static_cast<double>(u - last_units) / dt
                                 : 0.0;
    std::string line = "heartbeat: " + std::to_string(u) + " units, ";
    {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f units/s, %.1fs elapsed", rate,
                    elapsed);
      line += buf;
    }
    const double total = batch_total.value();
    const std::uint64_t done = batch_done.value();
    if (total > 0.0 && static_cast<double>(done) < total) {
      const double done_rate =
          elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
      if (done_rate > 0.0) {
        const double eta = (total - static_cast<double>(done)) / done_rate;
        char buf[64];
        std::snprintf(buf, sizeof(buf), ", %.0f/%.0f items, ETA %.0fs",
                      static_cast<double>(done), total, eta);
        line += buf;
      }
    }
    SIMPROF_LOG(kInfo) << line;
    last_beat = now;
    last_units = u;
  }
  // Serve a request that raced with shutdown.
  if (g_flightrec_requested.exchange(false, std::memory_order_relaxed)) {
    write_flight_record(flightrec);
  }
}

}  // namespace

void start_heartbeat(const HeartbeatConfig& config) {
  HeartbeatState& s = hb_state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (g_running.load(std::memory_order_relaxed)) return;
  s.config = config;
  g_stop.store(false, std::memory_order_relaxed);
  g_flightrec_requested.store(false, std::memory_order_relaxed);
  if (config.install_sigusr1) {
    struct sigaction sa = {};
    sa.sa_handler = &sigusr1_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (sigaction(SIGUSR1, &sa, &s.prev_sigusr1) == 0) {
      s.sigusr1_installed = true;
    }
  }
  s.thread = std::thread(heartbeat_main, config);
  g_running.store(true, std::memory_order_relaxed);
  SIMPROF_LOG(kDebug) << "heartbeat: started (period "
                      << config.period_s << "s, SIGUSR1 -> flight record)";
}

void stop_heartbeat() {
  HeartbeatState& s = hb_state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!g_running.load(std::memory_order_relaxed)) return;
  g_stop.store(true, std::memory_order_relaxed);
  if (s.thread.joinable()) s.thread.join();
  if (s.sigusr1_installed) {
    sigaction(SIGUSR1, &s.prev_sigusr1, nullptr);
    s.sigusr1_installed = false;
  }
  g_running.store(false, std::memory_order_relaxed);
}

bool heartbeat_running() {
  return g_running.load(std::memory_order_relaxed);
}

void request_flight_record() {
  g_flightrec_requested.store(true, std::memory_order_relaxed);
}

std::string flight_record_json() {
  std::string out = "{\n  \"schema\": \"simprof.flightrec/1\",\n";
  out += "  \"open_spans\": [";
  bool first = true;
  for (const OpenSpanInfo& span : open_spans()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"name\": " + json_quote(span.name);
    out += ", \"tid\": " + json_number(static_cast<std::uint64_t>(span.tid));
    out += ", \"elapsed_us\": " + json_number(span.elapsed_us) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": " + metrics().to_json() + "\n}\n";
  return out;
}

}  // namespace simprof::obs
