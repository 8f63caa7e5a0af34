// The simulated cluster node: N cores, a shared memory hierarchy, and a
// deterministic wave scheduler for stage execution.
//
// Concurrency model: a stage's tasks are dealt to cores round-robin and run
// in waves of up to `num_cores` tasks. All tasks in a wave are "concurrent"
// in virtual time; the shared LLC's effective associativity is divided by the
// wave's width, so full waves pressure the profiled thread's LLC share and
// straggler waves run with more cache — reproducing the paper's
// phase-interleaving performance variation deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "exec/executor_context.h"
#include "hw/access_stream.h"
#include "hw/memory_system.h"
#include "jvm/method.h"
#include "obs/trace.h"
#include "support/rng.h"

namespace simprof::exec {

struct ClusterConfig {
  hw::MemorySystemConfig memory;
  std::uint64_t unit_instrs = 1'000'000;        ///< paper: 100M, scaled 1/100
  std::uint64_t snapshot_interval = 100'000;    ///< paper: 10M, scaled 1/100
  double migration_prob_per_unit = 0.006;       ///< OS scheduling noise
  std::uint32_t profiled_core = 0;
  std::uint64_t seed = 42;
};

/// A stage's task body: runs task `task` (a Spark task or a Hadoop map or
/// reduce attempt, numbered 0..num_tasks-1 in deal order) on `ctx`.
using StageBody = std::function<void(std::size_t task, ExecutorContext& ctx)>;

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);

  std::uint32_t num_cores() const { return memory_.num_cores(); }
  const ClusterConfig& config() const { return cfg_; }

  jvm::MethodRegistry& methods() { return methods_; }
  const jvm::MethodRegistry& methods() const { return methods_; }
  hw::MemorySystem& memory() { return memory_; }
  const hw::MemorySystem& memory() const { return memory_; }
  hw::AddressSpace& address_space() { return address_space_; }

  ExecutorContext& context(std::uint32_t core);
  const ExecutorContext& context(std::uint32_t core) const;

  /// Install the profiling subscriber (SimProf's thread profiler). May be
  /// null to run unprofiled.
  void set_profiling_hook(ProfilingHook* hook) { hook_ = hook; }
  ProfilingHook* profiling_hook() const { return hook_; }

  /// Install the unit-start observer (checkpoint recording, cold
  /// measurement; see core/checkpoint.h). May be null.
  void set_unit_governor(UnitGovernor* g) { governor_ = g; }
  UnitGovernor* unit_governor() const { return governor_; }

  /// Install the profiled core's detailed-execution trace subscriber
  /// (checkpoint op-tape recording; see core/checkpoint.h). May be null.
  void set_tape_sink(OpTapeSink* s) { tape_sink_ = s; }
  OpTapeSink* tape_sink() const { return tape_sink_; }

  /// This cluster's pid on the virtual trace timeline (one per cluster).
  std::uint32_t trace_pid() const { return stage_lane_.pid; }

  /// Stages executed so far (schedule-position bookkeeping).
  std::uint64_t stages_run() const { return stages_run_; }

  /// Execute one stage of `num_tasks` tasks: they are dealt round-robin to
  /// cores and run in waves, task t as body(t, ctx). `thread_per_task`
  /// selects Hadoop semantics (each task runs on a fresh executor thread).
  /// Tasks allocate no simulated region; a stage allocates before it runs.
  void run_stage(std::string_view stage_name, std::size_t num_tasks,
                 const StageBody& body, bool thread_per_task = false);

  /// Flush the profiled thread's trailing partial sampling unit (see
  /// ExecutorContext::finish_partial_unit).
  void finish();

 private:
  ClusterConfig cfg_;
  hw::MemorySystem memory_;
  jvm::MethodRegistry methods_;
  hw::AddressSpace address_space_;
  std::vector<std::unique_ptr<ExecutorContext>> contexts_;
  ProfilingHook* hook_ = nullptr;
  UnitGovernor* governor_ = nullptr;
  OpTapeSink* tape_sink_ = nullptr;
  std::uint64_t stages_run_ = 0;
  Rng scheduler_rng_;
  obs::VirtualLane stage_lane_;  ///< per-stage summary spans
};

}  // namespace simprof::exec
