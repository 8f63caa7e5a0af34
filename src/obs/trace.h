// RAII trace spans: a per-name rollup built as each span closes, and
// optionally Chrome trace-event JSON (loadable in chrome://tracing and
// Perfetto).
//
//   obs::ObsSpan span("kmeans.lloyd", {{"k", k}});
//
// Two timelines share one trace file, distinguished by pid:
//   * pid 1 "wall-clock"    — host time of pipeline work (spans use
//     steady_clock; tid = the logger's small per-thread tag), and
//   * pid 2, 3, … "virtual-clock" — simulated time of the workload under
//     study, one pid per exec::Cluster in creation order (stage/task/spill/
//     shuffle events; ts = virtual cycles at the 2 GHz virtual clock;
//     tid = simulated core, plus a stage summary lane).
//
// Nesting is known when a span opens: a wall span's parent is the
// innermost armed span of its thread, a virtual span's the innermost open
// span of its VirtualLane. A closing span adds its inclusive and self
// ticks to its name's rollup row, so the rollup needs no event buffer.
//
// Zero-cost-when-off: every emitter checks trace_enabled() (one relaxed
// atomic load) before touching the clock or allocating; TraceArg holds PODs
// and only renders to JSON when an event is buffered. Events are buffered
// (under a mutex; event rates are per-job/per-stage, not per-row) only when
// tracing was started with buffer_events, and written by write_trace(). The
// buffer is capped; overflow increments the `trace.dropped_events` counter
// instead of growing without bound, and the `obs.trace_events_buffered`
// gauge reports its size.
//
// Determinism contract: tracing never reads RNG state and never feeds back
// into any computation — enabling it cannot perturb results (asserted by
// tests/obs_test.cc's bit-identity tests).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace simprof::obs {

/// Virtual-clock frequency used to place virtual-timeline events in
/// microseconds (matches bench_common.h's kClockGhz).
inline constexpr double kVirtualClockGhz = 2.0;

/// The virtual-timeline lane used for per-stage summary spans (per-task
/// spans use the simulated core id as their lane).
inline constexpr std::uint32_t kVirtualStageLane = 99;

/// One "args" entry of a trace event. Keys are expected to be string
/// literals; values are stored as PODs (or a view of a string, which must
/// outlive the call it is passed to) and rendered to JSON only when an
/// event is buffered.
struct TraceArg {
  enum class Kind { kInt, kUint, kDouble, kBool, kString };

  const char* key;
  Kind kind;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  std::string_view s;

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  TraceArg(const char* k, T v) : key(k) {
    if constexpr (std::is_signed_v<T>) {
      kind = Kind::kInt;
      i = static_cast<std::int64_t>(v);
    } else {
      kind = Kind::kUint;
      u = static_cast<std::uint64_t>(v);
    }
  }
  TraceArg(const char* k, double v) : key(k), kind(Kind::kDouble), d(v) {}
  TraceArg(const char* k, bool v) : key(k), kind(Kind::kBool), b(v) {}
  TraceArg(const char* k, std::string_view v)
      : key(k), kind(Kind::kString), s(v) {}
  TraceArg(const char* k, const char* v)
      : key(k), kind(Kind::kString), s(v) {}
};

/// True while a trace session is collecting. One relaxed atomic load.
bool trace_enabled();

/// Begin collecting (resets the wall-clock origin; keeps buffered events
/// and rollup rows). Spans always feed the rollup; events are buffered for
/// trace_to_json() only when `buffer_events` is set.
void start_tracing(bool buffer_events = true);

/// Stop collecting. Buffered events and rows stay available.
void stop_tracing();

/// Drop all buffered events, per-lane metadata and rollup rows.
void clear_trace();

/// Serialize the buffer as a Chrome trace-event JSON object.
std::string trace_to_json();

/// One aggregated row of the span-rollup profile (see span_rollup()).
struct SpanRollupRow {
  std::string name;
  bool virtual_timeline = false;  ///< virtual-clock (µs are cycles/2000)
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< inclusive time
  double self_us = 0.0;   ///< total minus the spans nested directly inside
  double max_us = 0.0;    ///< longest single span
};

/// The per-name profile of every span closed since the last clear_trace():
/// call counts, inclusive time and self time, sorted by (timeline, name).
/// Rows are summed in integer ticks (ns or cycles), so the order in which
/// threads close spans cannot change a figure.
///
/// Determinism contract: spans instrument logical work items (a stage, a
/// candidate k, a cache load), so the rollup's (name, count) sequence is
/// bit-identical across thread counts; wall-clock times are measurements
/// and vary, virtual-clock times are simulated and deterministic.
std::vector<SpanRollupRow> span_rollup();

/// A currently-open wall-clock span (flight-recorder live dump).
struct OpenSpanInfo {
  std::string name;
  std::uint32_t tid = 0;
  double elapsed_us = 0.0;
};

/// Snapshot of the spans open right now, oldest first. Only populated while
/// tracing is enabled (spans arm on construction).
std::vector<OpenSpanInfo> open_spans();

/// Serialize to `path` (logs an error and returns false on I/O failure).
bool write_trace(const std::string& path);

/// Wall-clock RAII span. Constructing with tracing disabled is free apart
/// from building the (POD) argument list. Spans of one thread must close
/// in reverse order of opening, as scopes do.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, std::initializer_list<TraceArg> args = {});
  ~ObsSpan();
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  bool armed_ = false;
  const char* name_ = nullptr;
  ObsSpan* parent_ = nullptr;  // enclosing armed span of this thread
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;  // inclusive time of direct children
  std::uint64_t open_seq_ = 0;  // key among the open spans
  std::string args_json_;       // pre-rendered "{…}" or empty
};

class VirtualSpan;

/// Trace pid of the first virtual timeline; each later exec::Cluster of
/// the process takes the next one (see next_virtual_pid()).
inline constexpr std::uint32_t kFirstVirtualPid = 2;

/// The next unused virtual-timeline pid: kFirstVirtualPid on the first
/// call, then one more per call.
std::uint32_t next_virtual_pid();

/// One lane of a virtual timeline: a simulated core's clock, or a cluster's
/// stage summary lane. It holds the innermost open span, so a span opened
/// on it knows its parent. A lane is used by one host thread at a time.
struct VirtualLane {
  std::uint32_t pid = kFirstVirtualPid;
  std::uint32_t tid = 0;  ///< core id or kVirtualStageLane
  VirtualSpan* top = nullptr;
};

/// RAII span on a virtual lane: [start_cycles, end_cycles] of the lane's
/// simulated clock. It opens on construction (when tracing is enabled) and
/// records only on close(); one destroyed unclosed (the unwind path, or a
/// span whose bounds went stale) pops itself and records nothing. `name`
/// must outlive the span.
class VirtualSpan {
 public:
  VirtualSpan(VirtualLane& lane, std::string_view name,
              std::uint64_t start_cycles);
  ~VirtualSpan();
  VirtualSpan(const VirtualSpan&) = delete;
  VirtualSpan& operator=(const VirtualSpan&) = delete;

  /// Record the span as ending at `end_cycles`; later calls do nothing.
  void close(std::uint64_t end_cycles,
             std::initializer_list<TraceArg> args = {});

 private:
  void pop();

  VirtualLane* lane_ = nullptr;  // null when unarmed or closed
  VirtualSpan* parent_ = nullptr;
  std::string_view name_;
  std::uint64_t start_cycles_ = 0;
  std::uint64_t child_cycles_ = 0;  // inclusive time of direct children
};

/// Instant event on a virtual lane.
void trace_virtual_instant(const VirtualLane& lane, std::string_view name,
                           std::uint64_t cycles,
                           std::initializer_list<TraceArg> args = {});

}  // namespace simprof::obs
