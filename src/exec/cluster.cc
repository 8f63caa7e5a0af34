#include "exec/cluster.h"

#include <algorithm>
#include <string>

#include "obs/obs.h"
#include "support/assert.h"

namespace simprof::exec {

Cluster::Cluster(const ClusterConfig& cfg)
    : cfg_(cfg),
      memory_(cfg.memory),
      scheduler_rng_(cfg.seed),
      stage_lane_{obs::next_virtual_pid(), obs::kVirtualStageLane} {
  SIMPROF_EXPECTS(cfg.unit_instrs > 0 && cfg.snapshot_interval > 0,
                  "intervals must be positive");
  SIMPROF_EXPECTS(cfg.unit_instrs % cfg.snapshot_interval == 0,
                  "unit size must be a multiple of the snapshot interval");
  SIMPROF_EXPECTS(cfg.profiled_core < cfg.memory.num_cores,
                  "profiled core out of range");
  contexts_.reserve(cfg.memory.num_cores);
  for (std::uint32_t c = 0; c < cfg.memory.num_cores; ++c) {
    contexts_.push_back(
        std::make_unique<ExecutorContext>(*this, c, scheduler_rng_.split()));
  }
}

ExecutorContext& Cluster::context(std::uint32_t core) {
  SIMPROF_EXPECTS(core < contexts_.size(), "core out of range");
  return *contexts_[core];
}

const ExecutorContext& Cluster::context(std::uint32_t core) const {
  SIMPROF_EXPECTS(core < contexts_.size(), "core out of range");
  return *contexts_[core];
}

void Cluster::run_stage(std::string_view stage_name, std::size_t num_tasks,
                        const StageBody& body, bool thread_per_task) {
  static obs::Counter& stages = obs::metrics().counter("exec.stages");
  static obs::Counter& task_count = obs::metrics().counter("exec.tasks");
  static obs::Counter& waves = obs::metrics().counter("exec.waves");
  stages.increment();
  task_count.add(num_tasks);
  ++stages_run_;
  obs::ObsSpan stage_span("exec.stage",
                          {{"stage", stage_name}, {"tasks", num_tasks}});
  const hw::PmuCounters& profiled = contexts_[cfg_.profiled_core]->counters();
  obs::VirtualSpan stage_vspan(stage_lane_, stage_name, profiled.cycles);
  const std::string task_name = std::string(stage_name) + "/task";
  const std::uint64_t allocated = address_space_.bytes_allocated();
  const std::uint32_t cores = num_cores();
  SIMPROF_LOG(kDebug) << "exec: stage " << stage_name << " (" << num_tasks
                      << " tasks over " << cores << " cores)";

  // Deal tasks to cores round-robin, then run wave by wave. Within a wave
  // all tasks are concurrent in virtual time; host execution order is
  // core-major and deterministic.
  std::size_t next = 0;
  std::size_t wave = 0;
  while (next < num_tasks) {
    const std::uint32_t wave_width = static_cast<std::uint32_t>(
        std::min<std::size_t>(cores, num_tasks - next));
    memory_.set_llc_pressure(wave_width);
    waves.increment();
    for (std::uint32_t c = 0; c < wave_width; ++c) {
      ExecutorContext& ctx = *contexts_[c];
      if (thread_per_task) ctx.begin_new_thread();
      obs::VirtualSpan task_span(ctx.trace_lane(), task_name,
                                 ctx.counters().cycles);
      body(next + c, ctx);
      task_span.close(ctx.counters().cycles, {{"task", next + c},
                                              {"wave", wave},
                                              {"stage", stage_name}});
    }
    next += wave_width;
    ++wave;
  }
  memory_.set_llc_pressure(1);
  SIMPROF_ASSERT(address_space_.bytes_allocated() == allocated,
                 "a task allocated a simulated region");
  stage_vspan.close(profiled.cycles, {{"tasks", num_tasks}, {"waves", wave}});
}

void Cluster::finish() {
  if (hook_ != nullptr) {
    contexts_[cfg_.profiled_core]->finish_partial_unit(*hook_);
  }
}

}  // namespace simprof::exec
