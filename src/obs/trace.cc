#include "obs/trace.h"

#include <algorithm>
#include <atomic>
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
constexpr std::uint32_t kVirtualPid = 2;

/// Hard cap on buffered events; overflow is counted, not collected.
constexpr std::size_t kMaxEvents = 4u << 20;

struct Event {
  char phase;  // 'X' complete, 'i' instant
  std::uint32_t pid;
  std::uint32_t tid;
  // Bounds in the timeline's own tick: ns on the wall clock, cycles on the
  // virtual one. span_rollup nests spans by these exact values; µs exist
  // only for output, where ts + dur can round past a tied next start.
  std::uint64_t start_tick;
  std::uint64_t end_tick;  // == start_tick for an instant
  std::string name;
  std::string args_json;  // pre-rendered "{…}" or empty
};

struct TraceState {
  std::mutex mu;
  std::vector<Event> events;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen_lanes;  // (pid, tid)
  std::chrono::steady_clock::time_point origin;
  std::uint64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};

TraceState& state() {
  static TraceState* s = new TraceState;  // leaky: usable from static dtors
  return *s;
}

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

double ts_us(const Event& ev) {
  return static_cast<double>(ev.start_tick) / ticks_per_us(ev.pid);
}

double dur_us(const Event& ev) {
  return static_cast<double>(ev.end_tick - ev.start_tick) /
         ticks_per_us(ev.pid);
}

void push_event(Event ev) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.events.size() >= kMaxEvents) {
    ++s.dropped;
    return;
  }
  s.seen_lanes.emplace(ev.pid, ev.tid);
  s.events.push_back(std::move(ev));
}

void append_event_json(std::string& out, const Event& ev) {
  char buf[64];
  out += "{\"name\": ";
  json_append_quoted(out, ev.name);
  std::snprintf(buf, sizeof(buf), ", \"ph\": \"%c\", \"pid\": %u, \"tid\": %u",
                ev.phase, ev.pid, ev.tid);
  out += buf;
  out += ", \"ts\": " + json_number(ts_us(ev));
  if (ev.phase == 'X') {
    out += ", \"dur\": " + json_number(dur_us(ev));
  } else if (ev.phase == 'i') {
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

/// Registry of currently-open wall-clock spans, keyed by the ObsSpan's
/// address (spans are neither copyable nor movable, so the address is
/// stable for the span's lifetime). Feeds the flight recorder's live dump.
struct OpenRec {
  const char* name;
  std::uint32_t tid;
  std::uint64_t start_ns;
  std::uint64_t seq;  // registration order (oldest first)
};

struct OpenSpanState {
  std::mutex mu;
  std::uint64_t next_seq = 0;
  std::map<const void*, OpenRec> spans;
};

OpenSpanState& open_state() {
  static OpenSpanState* s = new OpenSpanState;  // leaky, like state()
  return *s;
}

void register_open_span(const void* key, const char* name,
                        std::uint64_t start_ns) {
  OpenSpanState& s = open_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.spans.emplace(key,
                  OpenRec{name, this_thread_tag(), start_ns, s.next_seq++});
}

void unregister_open_span(const void* key) {
  OpenSpanState& s = open_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.spans.erase(key);
}

}  // namespace

bool trace_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void start_tracing() {
  TraceState& s = state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.origin = std::chrono::steady_clock::now();
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

void stop_tracing() { g_enabled.store(false, std::memory_order_relaxed); }

void clear_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.events.clear();
  s.seen_lanes.clear();
  s.dropped = 0;
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
  for (std::uint32_t pid : {kWallPid, kVirtualPid}) {
    const std::string pname =
        pid == kWallPid ? "wall-clock" : "virtual-clock";
    bool has_lane = false;
    for (const auto& [lp, lt] : s.seen_lanes) {
      if (lp != pid) continue;
      if (!has_lane) {
        emit([&] { append_metadata_json(out, pid, 0, "process_name", pname); });
        has_lane = true;
      }
      emit([&] {
        append_metadata_json(out, pid, lt, "thread_name", lane_name(pid, lt));
      });
    }
  }
  for (const Event& ev : s.events) {
    emit([&] { append_event_json(out, ev); });
  }
  out += "\n]}\n";
  if (s.dropped > 0) {
    SIMPROF_LOG(kWarn) << "trace: " << s.dropped
                       << " events dropped (buffer cap " << kMaxEvents << ")";
  }
  return out;
}

std::vector<SpanRollupRow> span_rollup() {
  // Snapshot the complete events, dropping scheduling internals ("pool.*"):
  // pool.parallel_for only exists on the parallel path (the serial inline
  // path never emits it), so its count varies with --threads and would
  // break the rollup's cross-thread-count (name, count) identity.
  struct Ev {
    std::uint32_t pid, tid;
    std::uint64_t start, end;  // ticks
    double dur;
    const std::string* name;
  };
  TraceState& s = state();
  std::vector<Ev> evs;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    evs.reserve(s.events.size());
    for (const Event& ev : s.events) {
      if (ev.phase != 'X') continue;
      if (std::string_view(ev.name).substr(0, 5) == "pool.") continue;
      evs.push_back(
          Ev{ev.pid, ev.tid, ev.start_tick, ev.end_tick, dur_us(ev), &ev.name});
    }
    // NOTE: `name` points into s.events; we finish all reads below before
    // releasing anything, and events are only cleared by clear_trace() which
    // takes the same mutex — but we must not hold pointers past this scope.
    // So do the whole aggregation under the lock.
    std::map<std::pair<bool, std::string>, SpanRollupRow> rows;
    // Per-lane stack pass: sort a lane's events by (start asc, end desc,
    // name) so parents precede their children, then track nesting with a
    // stack to apportion self time.
    std::stable_sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      if (a.pid != b.pid) return a.pid < b.pid;
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.start != b.start) return a.start < b.start;
      if (a.end != b.end) return a.end > b.end;
      return *a.name < *b.name;
    });
    struct Frame {
      std::uint64_t end;
      double child_us = 0.0;
      const std::string* name;
      bool virt;
    };
    std::vector<Frame> stack;
    auto flush_top = [&](const Frame& f, double dur) {
      rows[{f.virt, *f.name}].self_us += dur - f.child_us;
    };
    std::uint32_t cur_pid = 0, cur_tid = 0;
    bool have_lane = false;
    std::vector<double> durs;  // parallel to stack: each frame's duration
    auto pop_frame = [&] {
      flush_top(stack.back(), durs.back());
      stack.pop_back();
      durs.pop_back();
    };
    for (const Ev& ev : evs) {
      if (!have_lane || ev.pid != cur_pid || ev.tid != cur_tid) {
        while (!stack.empty()) pop_frame();
        cur_pid = ev.pid;
        cur_tid = ev.tid;
        have_lane = true;
      }
      while (!stack.empty() && stack.back().end <= ev.start) pop_frame();
      if (!stack.empty()) stack.back().child_us += ev.dur;
      const bool virt = ev.pid == kVirtualPid;
      SpanRollupRow& row = rows[{virt, *ev.name}];
      if (row.count == 0) {
        row.name = *ev.name;
        row.virtual_timeline = virt;
      }
      ++row.count;
      row.total_us += ev.dur;
      row.max_us = std::max(row.max_us, ev.dur);
      stack.push_back(Frame{ev.end, 0.0, ev.name, virt});
      durs.push_back(ev.dur);
    }
    while (!stack.empty()) pop_frame();
    std::vector<SpanRollupRow> out;
    out.reserve(rows.size());
    for (auto& [key, row] : rows) out.push_back(std::move(row));
    return out;
  }
}

std::vector<OpenSpanInfo> open_spans() {
  OpenSpanState& s = open_state();
  const std::uint64_t now = now_ns();
  std::vector<std::pair<std::uint64_t, OpenSpanInfo>> tmp;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    tmp.reserve(s.spans.size());
    for (const auto& [key, rec] : s.spans) {
      tmp.emplace_back(
          rec.seq,
          OpenSpanInfo{rec.name, rec.tid,
                       static_cast<double>(now - rec.start_ns) / 1000.0});
    }
  }
  std::sort(tmp.begin(), tmp.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<OpenSpanInfo> out;
  out.reserve(tmp.size());
  for (auto& [seq, info] : tmp) out.push_back(std::move(info));
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
  args_json_ = render_args(args);
  start_ns_ = now_ns();
  register_open_span(this, name_, start_ns_);
}

ObsSpan::~ObsSpan() {
  if (!armed_) return;
  unregister_open_span(this);
  Event ev;
  ev.phase = 'X';
  ev.pid = kWallPid;
  ev.tid = this_thread_tag();
  ev.start_tick = start_ns_;
  ev.end_tick = now_ns();
  ev.name = name_;
  ev.args_json = std::move(args_json_);
  push_event(std::move(ev));
}

void trace_instant(const char* name, std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  Event ev;
  ev.phase = 'i';
  ev.pid = kWallPid;
  ev.tid = this_thread_tag();
  ev.start_tick = ev.end_tick = now_ns();
  ev.name = name;
  ev.args_json = render_args(args);
  push_event(std::move(ev));
}

void trace_virtual_span(std::string_view name, std::uint64_t start_cycles,
                        std::uint64_t end_cycles, std::uint32_t vtid,
                        std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  Event ev;
  ev.phase = 'X';
  ev.pid = kVirtualPid;
  ev.tid = vtid;
  ev.start_tick = start_cycles;
  ev.end_tick = end_cycles;
  ev.name = std::string(name);
  ev.args_json = render_args(args);
  push_event(std::move(ev));
}

void trace_virtual_instant(std::string_view name, std::uint64_t cycles,
                           std::uint32_t vtid,
                           std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  Event ev;
  ev.phase = 'i';
  ev.pid = kVirtualPid;
  ev.tid = vtid;
  ev.start_tick = ev.end_tick = cycles;
  ev.name = std::string(name);
  ev.args_json = render_args(args);
  push_event(std::move(ev));
}

}  // namespace simprof::obs
