#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace simprof::obs {
namespace {

constexpr std::uint32_t kWallPid = 1;

/// Hard cap on buffered events; overflow is counted, not collected.
constexpr std::size_t kMaxEvents = 4u << 20;

struct Event {
  char phase;  // 'X' complete, 'i' instant
  std::uint32_t pid;
  std::uint32_t tid;
  // Bounds in the timeline's own tick: ns on the wall clock, cycles on the
  // virtual one.
  std::uint64_t start_tick;
  std::uint64_t end_tick;  // == start_tick for an instant
  std::string name;
  std::string args_json;  // pre-rendered "{…}" or empty
};

/// One rollup row in integer ticks (ns or cycles).
struct RowTicks {
  std::uint64_t count = 0, total = 0, self = 0, max = 0;
};

/// An armed ObsSpan, for the flight recorder's live dump.
struct OpenSpan {
  const char* name;
  std::uint32_t tid;
  std::uint64_t start_ns;
};

struct TraceState {
  std::mutex mu;
  std::vector<Event> events;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen_lanes;  // (pid, tid)
  std::map<std::string, RowTicks, std::less<>> rows[2];  // [virtual][name]
  std::map<std::uint64_t, OpenSpan> open;  // armed wall spans, oldest first
  std::uint64_t next_open = 0;
  std::chrono::steady_clock::time_point origin;
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_buffering{false};
std::atomic<std::uint32_t> g_next_virtual_pid{kFirstVirtualPid};
thread_local ObsSpan* tls_open_span = nullptr;  // innermost armed ObsSpan

// Registered at load, so every metrics snapshot carries them.
Counter& g_dropped = metrics().counter("trace.dropped_events");
Gauge& g_buffered = metrics().gauge("obs.trace_events_buffered");

TraceState& state() {
  static TraceState* s = new TraceState;  // leaky: usable from static dtors
  return *s;
}

bool buffering() { return g_buffering.load(std::memory_order_relaxed); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - state().origin)
          .count());
}

std::string render_args(std::initializer_list<TraceArg> args) {
  if (args.size() == 0) return {};
  std::string out = "{";
  bool first = true;
  for (const TraceArg& a : args) {
    if (!first) out += ", ";
    first = false;
    json_append_quoted(out, a.key);
    out += ": ";
    switch (a.kind) {
      case TraceArg::Kind::kInt: out += json_number(a.i); break;
      case TraceArg::Kind::kUint: out += json_number(a.u); break;
      case TraceArg::Kind::kDouble: out += json_number(a.d); break;
      case TraceArg::Kind::kBool: out += a.b ? "true" : "false"; break;
      case TraceArg::Kind::kString: json_append_quoted(out, a.s); break;
    }
  }
  out += "}";
  return out;
}

double ticks_per_us(std::uint32_t pid) {
  return pid == kWallPid ? 1000.0 : kVirtualClockGhz * 1000.0;
}

void push_event_locked(TraceState& s, Event ev) {
  if (s.events.size() >= kMaxEvents) {
    g_dropped.increment();
    return;
  }
  s.seen_lanes.emplace(ev.pid, ev.tid);
  s.events.push_back(std::move(ev));
  g_buffered.set(static_cast<double>(s.events.size()));
}

/// Add a closed span to its rollup row and, when buffering, to the event
/// buffer. `child` is the inclusive time of the spans nested directly
/// inside it, so its self time is its duration minus `child`.
void record_span_locked(TraceState& s, std::uint32_t pid, std::uint32_t tid,
                        std::string_view name, std::uint64_t start,
                        std::uint64_t end, std::uint64_t child,
                        std::string args_json) {
  const std::uint64_t dur = end - start;
  auto& rows = s.rows[pid != kWallPid];
  auto it = rows.find(name);
  if (it == rows.end()) it = rows.emplace(std::string(name), RowTicks{}).first;
  RowTicks& row = it->second;
  ++row.count;
  row.total += dur;
  row.self += dur - child;
  row.max = std::max(row.max, dur);
  if (buffering()) {
    push_event_locked(s, Event{'X', pid, tid, start, end, std::string(name),
                               std::move(args_json)});
  }
}

void append_event_json(std::string& out, const Event& ev) {
  char buf[64];
  out += "{\"name\": ";
  json_append_quoted(out, ev.name);
  std::snprintf(buf, sizeof(buf), ", \"ph\": \"%c\", \"pid\": %u, \"tid\": %u",
                ev.phase, ev.pid, ev.tid);
  out += buf;
  const double per_us = ticks_per_us(ev.pid);
  out += ", \"ts\": " + json_number(static_cast<double>(ev.start_tick) / per_us);
  if (ev.phase == 'X') {
    out += ", \"dur\": " +
           json_number(static_cast<double>(ev.end_tick - ev.start_tick) /
                       per_us);
  } else {
    out += ", \"s\": \"t\"";
  }
  if (!ev.args_json.empty()) out += ", \"args\": " + ev.args_json;
  out += "}";
}

void append_metadata_json(std::string& out, std::uint32_t pid,
                          std::uint32_t tid, const char* what,
                          const std::string& name) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %u, \"tid\": %u, "
                "\"args\": {\"name\": ",
                what, pid, tid);
  out += buf;
  json_append_quoted(out, name);
  out += "}}";
}

std::string lane_name(std::uint32_t pid, std::uint32_t tid) {
  if (pid == kWallPid) return "thread " + std::to_string(tid);
  if (tid == kVirtualStageLane) return "stages";
  return "core " + std::to_string(tid);
}

}  // namespace

bool trace_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void start_tracing(bool buffer_events) {
  TraceState& s = state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.origin = std::chrono::steady_clock::now();
  }
  g_buffering.store(buffer_events, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void stop_tracing() { g_enabled.store(false, std::memory_order_relaxed); }

void clear_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.events.clear();
  s.seen_lanes.clear();
  for (auto& rows : s.rows) rows.clear();
  g_buffered.set(0.0);
}

std::string trace_to_json() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](auto&& appender) {
    out += first ? "  " : ",\n  ";
    first = false;
    appender();
  };
  std::uint32_t named_pid = 0;  // pids start at 1
  for (const auto& [pid, tid] : s.seen_lanes) {
    if (pid != named_pid) {
      named_pid = pid;
      emit([&] {
        append_metadata_json(out, pid, 0, "process_name",
                             pid == kWallPid ? "wall-clock" : "virtual-clock");
      });
    }
    emit([&] {
      append_metadata_json(out, pid, tid, "thread_name", lane_name(pid, tid));
    });
  }
  for (const Event& ev : s.events) {
    emit([&] { append_event_json(out, ev); });
  }
  out += "\n]}\n";
  if (const std::uint64_t dropped = g_dropped.value(); dropped > 0) {
    SIMPROF_LOG(kWarn) << "trace: " << dropped
                       << " events dropped (buffer cap " << kMaxEvents << ")";
  }
  return out;
}

std::vector<SpanRollupRow> span_rollup() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<SpanRollupRow> out;
  for (const bool virt : {false, true}) {
    const double per_us = ticks_per_us(virt ? kFirstVirtualPid : kWallPid);
    for (const auto& [name, t] : s.rows[virt]) {
      out.push_back(SpanRollupRow{name, virt, t.count,
                                  static_cast<double>(t.total) / per_us,
                                  static_cast<double>(t.self) / per_us,
                                  static_cast<double>(t.max) / per_us});
    }
  }
  return out;
}

std::vector<OpenSpanInfo> open_spans() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t now = now_ns();
  std::vector<OpenSpanInfo> out;
  for (const auto& [seq, span] : s.open) {
    out.push_back(OpenSpanInfo{
        span.name, span.tid,
        static_cast<double>(now - span.start_ns) / 1000.0});
  }
  return out;
}

bool write_trace(const std::string& path) {
  if (!write_json_file(path, trace_to_json(), "trace")) return false;
  SIMPROF_LOG(kDebug) << "trace: wrote events to " << path;
  return true;
}

ObsSpan::ObsSpan(const char* name, std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  armed_ = true;
  name_ = name;
  parent_ = std::exchange(tls_open_span, this);
  if (buffering()) args_json_ = render_args(args);
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  start_ns_ = now_ns();
  open_seq_ = s.next_open++;
  s.open.emplace(open_seq_, OpenSpan{name_, this_thread_tag(), start_ns_});
}

ObsSpan::~ObsSpan() {
  if (!armed_) return;
  tls_open_span = parent_;
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t end_ns = now_ns();
  s.open.erase(open_seq_);
  if (parent_ != nullptr) parent_->child_ns_ += end_ns - start_ns_;
  record_span_locked(s, kWallPid, this_thread_tag(), name_, start_ns_, end_ns,
                     child_ns_, std::move(args_json_));
}

std::uint32_t next_virtual_pid() {
  return g_next_virtual_pid.fetch_add(1, std::memory_order_relaxed);
}

VirtualSpan::VirtualSpan(VirtualLane& lane, std::string_view name,
                         std::uint64_t start_cycles) {
  if (!trace_enabled()) return;
  lane_ = &lane;
  parent_ = std::exchange(lane.top, this);
  name_ = name;
  start_cycles_ = start_cycles;
}

VirtualSpan::~VirtualSpan() { pop(); }

void VirtualSpan::pop() {
  if (lane_ == nullptr) return;
  assert(lane_->top == this && "virtual spans close innermost first");
  lane_->top = parent_;
  lane_ = nullptr;
}

void VirtualSpan::close(std::uint64_t end_cycles,
                        std::initializer_list<TraceArg> args) {
  if (lane_ == nullptr) return;
  const std::uint32_t pid = lane_->pid;
  const std::uint32_t tid = lane_->tid;
  pop();
  if (parent_ != nullptr) parent_->child_cycles_ += end_cycles - start_cycles_;
  std::string args_json = buffering() ? render_args(args) : std::string();
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  record_span_locked(s, pid, tid, name_, start_cycles_, end_cycles,
                     child_cycles_, std::move(args_json));
}

void trace_virtual_instant(const VirtualLane& lane, std::string_view name,
                           std::uint64_t cycles,
                           std::initializer_list<TraceArg> args) {
  if (!trace_enabled() || !buffering()) return;
  Event ev{'i', lane.pid, lane.tid, cycles, cycles, std::string(name),
           render_args(args)};
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  push_event_locked(s, std::move(ev));
}

}  // namespace simprof::obs
