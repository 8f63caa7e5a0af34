#include "exec/executor_context.h"

#include <algorithm>

#include "exec/cluster.h"
#include "obs/obs.h"
#include "support/assert.h"

namespace simprof::exec {

ExecutorContext::ExecutorContext(Cluster& cluster, std::uint32_t core, Rng rng)
    : cluster_(cluster),
      core_(core),
      rng_(rng),
      trace_lane_{cluster.trace_pid(), core} {
  next_snapshot_at_ = cluster_.config().snapshot_interval;
  next_unit_at_ = cluster_.config().unit_instrs;
}

bool ExecutorContext::is_profiled() const {
  return core_ == cluster_.config().profiled_core;
}

jvm::MethodId ExecutorContext::method(std::string_view name,
                                      jvm::OpKind kind) {
  return cluster_.methods().intern(name, kind);
}

std::uint64_t ExecutorContext::pipeline_slice_instrs() const {
  return std::max<std::uint64_t>(cluster_.config().snapshot_interval / 4, 1);
}

void ExecutorContext::prime_governor_if_needed() {
  // The first profiled instruction of a run is a unit start too: consult the
  // governor once so a cold measurement with nothing to measure can stop
  // from instruction zero (and a recorder opens its first window at unit 0).
  if (governor_primed_) return;
  governor_primed_ = true;
  if (UnitGovernor* g = cluster_.unit_governor(); g != nullptr) {
    g->on_unit_start(counters_.instructions / cluster_.config().unit_instrs,
                     *this);
  }
}

// The one detailed reference loop: runs up to `limit` references of `stream`
// through the profiled core's hierarchy, adding their latencies to `cycles`
// and feeding the MAV tracker and (when `record_tape`) the chunk buffer.
// Returns how many references ran.
//
// References are taken in batches of ref_batch_.size() so the tracker's
// table slot for the reference kPrefetchAhead positions on can be
// prefetched. A batch never asks for more than `limit` − n references, so
// the stream's cursor ends exactly `limit` further on, or at its end.
[[gnu::always_inline]] inline std::uint64_t ExecutorContext::simulate_refs(
    hw::AccessStream& stream, std::uint64_t limit, double& cycles,
    bool record_tape) {
  constexpr std::size_t kPrefetchAhead = 8;
  if (record_tape) tape_refs_.clear();
  hw::MemRef* const batch = ref_batch_.data();
  double acc = cycles;
  std::uint64_t n = 0;
  while (n < limit) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(ref_batch_.size(), limit - n));
    const std::size_t got = stream.take(batch, want);
    for (std::size_t k = 0; k < got; ++k) {
      if (k + kPrefetchAhead < got) {
        mav_tracker_.prefetch(batch[k + kPrefetchAhead].line);
      }
      const auto out = cluster_.memory().access_outcome(core_, batch[k]);
      acc += out.cycles;
      mav_tracker_.record(batch[k].line, out.level);
    }
    if (record_tape) tape_refs_.insert(tape_refs_.end(), batch, batch + got);
    n += got;
    if (got < want) break;
  }
  counters_.line_touches += n;
  cycles = acc;
  return n;
}

void ExecutorContext::execute(std::uint64_t instrs, hw::AccessStream& stream,
                              std::uint64_t refs) {
  const auto& cost = cluster_.memory().config().cost;
  if (!is_profiled()) {
    // Functional-only execution: advance the clock, skip cache simulation.
    counters_.instructions += instrs;
    charge_cycles(static_cast<double>(instrs) * cost.base_cpi);
    return;
  }
  prime_governor_if_needed();
  if (stopped_) {
    skip(instrs);
    return;
  }
  OpTapeSink* const sink = cluster_.tape_sink();

  if (instrs == 0) {
    // Still drain the stream so kernels can emit pure-traffic work.
    if (refs == 0) return;
    double cycles = 0.0;
    simulate_refs(stream, refs, cycles, sink != nullptr);
    charge_cycles(cycles);
    if (sink != nullptr && !tape_refs_.empty()) {
      sink->on_chunk(0, tape_refs_, cluster_.memory().llc().effective_ways(),
                     stack_.frames());
    }
    return;
  }

  std::uint64_t done = 0;
  std::uint64_t refs_done = 0;

  while (done < instrs) {
    // Advance to the nearest profiling boundary.
    std::uint64_t step = instrs - done;
    const std::uint64_t ip = counters_.instructions;
    SIMPROF_ASSERT(next_snapshot_at_ > ip && next_unit_at_ > ip,
                   "boundary bookkeeping fell behind");
    step = std::min(step, next_snapshot_at_ - ip);
    step = std::min(step, next_unit_at_ - ip);

    // References apportioned evenly across the chunk's instructions.
    const auto target = static_cast<std::uint64_t>(
        static_cast<__uint128_t>(refs) * (done + step) / instrs);
    double cycles = static_cast<double>(step) * cost.base_cpi;
    refs_done += simulate_refs(stream, target - refs_done, cycles,
                               sink != nullptr);
    // Miss counters are read off the cache models lazily at boundaries; the
    // per-level miss deltas are maintained here for unit records.
    counters_.l1_misses = cluster_.memory().l1(core_).stats().misses;
    counters_.l2_misses = cluster_.memory().l2(core_).stats().misses;
    counters_.llc_misses = cluster_.memory().llc().stats().misses;

    counters_.instructions += step;
    done += step;
    charge_cycles(cycles);
    // The chunk belongs to the window that was open while it executed, so it
    // is emitted before the boundary hooks can rotate the recorder's window.
    if (sink != nullptr) {
      sink->on_chunk(step, tape_refs_,
                     cluster_.memory().llc().effective_ways(),
                     stack_.frames());
    }
    maybe_fire_boundaries();
    if (stopped_) {
      skip(instrs - done);
      return;
    }
  }
}

void ExecutorContext::maybe_fire_boundaries() {
  const auto& cfg = cluster_.config();
  const std::uint64_t ip = counters_.instructions;
  ProfilingHook* hook = cluster_.profiling_hook();

  if (ip >= next_snapshot_at_) {
    if (hook != nullptr) hook->on_snapshot(stack_.frames());
    next_snapshot_at_ += cfg.snapshot_interval;
  }
  if (ip >= next_unit_at_) {
    if (hook != nullptr) {
      hook->on_unit_boundary(counters_.delta_since(unit_start_counters_),
                             mav_tracker_.block());
    }
    unit_start_counters_ = counters_;
    // Reset before the governor's sequence point so checkpoint archives
    // never need to carry tracker state (it is empty exactly here).
    mav_tracker_.reset();
    next_unit_at_ += cfg.unit_instrs;
    // OS scheduling noise: occasionally the executor thread is migrated to
    // another core; its private caches go cold (Section III-B.1). The tape
    // sink sees the generator state entering the draw, because a tape
    // replay never runs the workload code that draws between boundaries.
    if (OpTapeSink* sink = cluster_.tape_sink(); sink != nullptr) {
      sink->on_boundary_rng(ip / cfg.unit_instrs, rng_.state());
    }
    if (rng_.next_bool(cfg.migration_prob_per_unit)) {
      cluster_.memory().migrate(core_);
      ++counters_.migrations;
      static obs::Counter& migrations =
          obs::metrics().counter("exec.migrations");
      migrations.increment();
      obs::trace_virtual_instant(trace_lane_, "migration", counters_.cycles,
                                 {{"instructions", ip}});
    }
    // Unit boundary mechanics are done; tell the governor a unit starts. A
    // checkpoint recorder snapshots *here* (after the migration draw) and a
    // replayer restores at the same sequence point, so saved and restored
    // generator states line up exactly.
    if (UnitGovernor* g = cluster_.unit_governor(); g != nullptr) {
      g->on_unit_start(ip / cfg.unit_instrs, *this);
    }
  }
}

void ExecutorContext::skip(std::uint64_t instrs) {
  // Workload code draws from rng() between boundaries and may size its next
  // execute() by the draw (quicksort pivots): each crossed boundary keeps its
  // migration draw so the skipped tail adds up as in the oracle pass.
  skipped_instrs_ += instrs;
  const std::uint64_t ip = counters_.instructions + skipped_instrs_;
  const auto& cfg = cluster_.config();
  for (; next_unit_at_ <= ip; next_unit_at_ += cfg.unit_instrs) {
    rng_.next_bool(cfg.migration_prob_per_unit);
  }
}

bool ExecutorContext::finish_partial_unit(ProfilingHook& hook) {
  if (stopped_ || counters_.instructions % cluster_.config().unit_instrs <
                      cluster_.config().snapshot_interval) {
    return false;
  }
  hook.on_unit_boundary(counters_.delta_since(unit_start_counters_),
                        mav_tracker_.block());
  unit_start_counters_ = counters_;
  mav_tracker_.reset();
  return true;
}

ThreadState ExecutorContext::capture_state() const {
  ThreadState st;
  st.counters = counters_;
  st.cycles_acc = cycles_acc_;
  st.thread_id = thread_id_;
  st.rng = rng_.state();
  const auto frames = stack_.frames();
  st.frames.assign(frames.begin(), frames.end());
  st.next_snapshot_at = next_snapshot_at_;
  st.next_unit_at = next_unit_at_;
  st.unit_start_counters = unit_start_counters_;
  return st;
}

void ExecutorContext::restore_state(const ThreadState& st) {
  // Restores land at unit boundaries, where the saving context's tracker had
  // just been reset — start empty so replayed units rebuild identical MAVs.
  mav_tracker_.reset();
  counters_ = st.counters;
  cycles_acc_ = st.cycles_acc;
  thread_id_ = st.thread_id;
  rng_.set_state(st.rng);
  stack_.restore_frames(st.frames);
  next_snapshot_at_ = st.next_snapshot_at;
  next_unit_at_ = st.next_unit_at;
  unit_start_counters_ = st.unit_start_counters;
}

}  // namespace simprof::exec
