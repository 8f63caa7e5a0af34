// ExecutorContext: the simulated executor thread a workload kernel runs on.
//
// Kernels interact with the simulation exclusively through this type:
//   * `method(...)` + jvm::MethodScope maintain the shadow call stack,
//   * `execute(instrs, stream)` retires virtual instructions and replays the
//     kernel's memory traffic through the cache hierarchy,
//   * snapshot and sampling-unit boundaries fire the profiling hooks that
//     SimProf's thread profiler (Section III-A) subscribes to.
//
// Only the *profiled* core pays for cache simulation and snapshotting; other
// cores advance instruction counts for schedule bookkeeping but execute
// functionally. Their LLC interference on the profiled thread is modeled by
// the cluster's wave-pressure mechanism (see cluster.h).
//
// Functional-only contract: on a non-profiled core, execute() adds the
// instructions and their base-CPI cycles and nothing else. It reads no
// stream and fires no hook. That core's generator, cycle count and shadow
// stack reach no profile, checkpoint archive or manifest; they only bound
// its virtual trace spans. So code above execute() may charge a
// non-profiled core's work in fewer, larger steps and skip the draws and
// frames that only shape the profiled core's slicing (PipelineBatcher does).
// Workload outputs and the profiled core's work must never depend on a
// non-profiled core's generator.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "hw/access_stream.h"
#include "hw/mav.h"
#include "hw/memory_system.h"
#include "jvm/call_stack.h"
#include "jvm/method.h"
#include "obs/trace.h"
#include "support/rng.h"

namespace simprof::exec {

class Cluster;
class PipelineBatcher;

/// Subscriber for profiling events on the profiled executor thread.
class ProfilingHook {
 public:
  virtual ~ProfilingHook() = default;
  /// Called every snapshot interval with the live call stack (JVMTI-style).
  virtual void on_snapshot(std::span<const jvm::MethodId> stack) = 0;
  /// Called at each sampling-unit boundary with the unit's counter deltas
  /// and its memory-access vector.
  virtual void on_unit_boundary(const hw::PmuCounters& delta,
                                const hw::MavBlock& mav) = 0;
};

/// Subscriber for the profiled core's detailed execution trace. execute()
/// fires it once per boundary-clipped chunk — immediately before the chunk's
/// profiling boundaries — with the chunk's instruction count, exactly the
/// memory references it consumed, the shared LLC's effective associativity
/// (wave pressure) and the live shadow stack. A checkpoint recorder
/// (core/checkpoint.h) serializes this op tape next to the state snapshot so
/// a later measurement can re-execute the chunk sequence verbatim without
/// running the workload at all.
class OpTapeSink {
 public:
  virtual ~OpTapeSink() = default;
  virtual void on_chunk(std::uint64_t instrs,
                        std::span<const hw::MemRef> refs,
                        std::uint32_t llc_ways,
                        std::span<const jvm::MethodId> frames) = 0;
  /// Fired at every sampling-unit boundary, right after the chunk that
  /// reached it and before the boundary's migration draw, with the thread's
  /// generator state. Workload code draws from rng() between boundaries and
  /// a tape replay never runs it, so the replay restores this state before
  /// re-drawing. `unit_index` is the unit the boundary starts.
  virtual void on_boundary_rng(std::uint64_t unit_index,
                               const RngState& rng) = 0;
};

class ExecutorContext;

/// Unit-start observer, consulted by the profiled context at every
/// sampling-unit start (including the very first instruction of a run).
/// This is where checkpointing plugs in: a recorder snapshots state here
/// (see core/checkpoint.h), and a cold measurement stops the profiled core
/// once the unit after its last target starts (ExecutorContext::stop).
class UnitGovernor {
 public:
  virtual ~UnitGovernor() = default;
  virtual void on_unit_start(std::uint64_t unit_index,
                             ExecutorContext& ctx) = 0;
};

/// Complete serializable state of one executor thread (checkpointing).
struct ThreadState {
  hw::PmuCounters counters;
  double cycles_acc = 0.0;
  std::uint64_t thread_id = 0;
  RngState rng;
  std::vector<jvm::MethodId> frames;  ///< shadow stack, outermost first
  std::uint64_t next_snapshot_at = 0;
  std::uint64_t next_unit_at = 0;
  hw::PmuCounters unit_start_counters;
};

class ExecutorContext final {
 public:
  ExecutorContext(Cluster& cluster, std::uint32_t core, Rng rng);

  std::uint32_t core() const { return core_; }
  bool is_profiled() const;

  jvm::CallStack& stack() { return stack_; }

  /// Intern a method in the cluster-wide registry.
  jvm::MethodId method(std::string_view name, jvm::OpKind kind);

  /// Retire `instrs` virtual instructions whose memory traffic is the next
  /// `refs` references of `stream` (fewer if the stream ends first). The
  /// references are spread evenly across the instruction range; snapshot/
  /// unit boundaries fire in-order as they are crossed. A pipeline slice
  /// passes its share of a longer stream here (exec/pipeline.h). On a
  /// non-profiled core only the instruction count and base-CPI cycles
  /// advance (the functional-only contract above).
  void execute(std::uint64_t instrs, hw::AccessStream& stream,
               std::uint64_t refs);

  /// Retire `instrs` instructions over the whole of `stream`.
  void execute(std::uint64_t instrs, hw::AccessStream& stream) {
    execute(instrs, stream, stream.total_refs());
  }

  /// Pure-compute convenience.
  void compute(std::uint64_t instrs) {
    hw::AccessStream none;
    execute(instrs, none, 0);
  }

  /// Deterministic per-core random stream (data-dependent access patterns).
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }

  /// Owning cluster (engines use this to reach scheduler-level state).
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }

  /// One-way stop of the profiled core: from now on execute() returns at
  /// once — no stream reads, no cache simulation, no counter updates, no
  /// profiling hooks. It adds the instructions it was handed to
  /// skipped_instrs() and only takes the migration draw of each unit
  /// boundary they cross, so the thread's generator stays in step with the
  /// oracle pass. Engines leave a trace span unclosed on a stopped core,
  /// whose cycle bounds would be stale.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Instructions handed to execute() after the stop (obs/bench counter).
  std::uint64_t skipped_instrs() const { return skipped_instrs_; }

  /// The trailing-partial-unit rule: fire one last unit boundary through
  /// `hook` iff the unit in progress is at least one snapshot interval long
  /// and the core was not stopped. Shorter tails carry too few call stacks
  /// to vectorize and are dropped, mirroring the paper's fixed-size units.
  /// Shared by Cluster::finish and the checkpoint replayer; returns whether
  /// the boundary fired.
  bool finish_partial_unit(ProfilingHook& hook);

  /// Snapshot/overwrite the full thread state (checkpoint save/restore).
  ThreadState capture_state() const;
  void restore_state(const ThreadState& st);

  const hw::PmuCounters& counters() const { return counters_; }
  std::uint64_t instructions() const { return counters_.instructions; }

  /// Virtual thread identity: Spark keeps one thread per core for the whole
  /// job; Hadoop starts a fresh thread per task (the profiler merges them).
  std::uint64_t thread_id() const { return thread_id_; }
  void begin_new_thread() { ++thread_id_; }

  /// Active pipeline batcher (see exec/pipeline.h), or null when operators
  /// should charge immediately. Managed by PipelineScope.
  PipelineBatcher* batcher() const { return batcher_; }
  void set_batcher(PipelineBatcher* b) { batcher_ = b; }

  /// Recommended flush slice: well under the snapshot interval so sampling
  /// units observe the interleaved pipeline mixture.
  std::uint64_t pipeline_slice_instrs() const;

  /// This core's lane on the cluster's virtual trace timeline.
  obs::VirtualLane& trace_lane() { return trace_lane_; }

 private:
  void charge_cycles(double cycles) {
    cycles_acc_ += cycles;
    counters_.cycles = static_cast<std::uint64_t>(cycles_acc_);
  }
  std::uint64_t simulate_refs(hw::AccessStream& stream, std::uint64_t limit,
                              double& cycles, bool record_tape);
  void maybe_fire_boundaries();
  void prime_governor_if_needed();
  void skip(std::uint64_t instrs);

  Cluster& cluster_;
  std::uint32_t core_;
  Rng rng_;
  jvm::CallStack stack_;
  hw::PmuCounters counters_;
  double cycles_acc_ = 0.0;
  std::uint64_t thread_id_ = 0;
  PipelineBatcher* batcher_ = nullptr;
  obs::VirtualLane trace_lane_;

  // Profiling bookkeeping (profiled core only).
  std::uint64_t next_snapshot_at_ = 0;
  std::uint64_t next_unit_at_ = 0;
  hw::PmuCounters unit_start_counters_;
  /// Intra-unit reuse/level tracker; reset at every unit boundary *before*
  /// the governor sequence point, so checkpoint save/restore never needs to
  /// carry tracker state (it is empty exactly where archives snapshot).
  hw::ReuseTracker mav_tracker_;

  // Governor and stop bookkeeping (profiled core only).
  bool governor_primed_ = false;
  bool stopped_ = false;
  std::uint64_t skipped_instrs_ = 0;
  std::vector<hw::MemRef> tape_refs_;  ///< scratch chunk buffer (OpTapeSink)
  /// simulate_refs' pull buffer; a member so calls don't re-initialise it.
  std::array<hw::MemRef, 64> ref_batch_;
};

}  // namespace simprof::exec
