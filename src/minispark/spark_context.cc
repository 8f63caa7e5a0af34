#include "minispark/spark_context.h"

#include "jvm/call_stack.h"
#include "obs/obs.h"

namespace simprof::spark {

SparkContext::SparkContext(exec::Cluster& cluster, SparkConfig cfg)
    : cluster_(cluster), cfg_(cfg), methods_(cluster.methods()) {}

void SparkContext::run_stage(std::string_view stage_name, bool shuffle_map,
                             std::size_t num_tasks,
                             const exec::StageBody& body) {
  static obs::Counter& stage_count = obs::metrics().counter("spark.stages");
  static obs::Counter& shuffle_stage_count =
      obs::metrics().counter("spark.shuffle_stages");
  stage_count.increment();
  if (shuffle_map) shuffle_stage_count.increment();
  const jvm::MethodId task_frame =
      shuffle_map ? methods_.shuffle_map_task : methods_.result_task;
  cluster_.run_stage(
      stage_name, num_tasks,
      [&](std::size_t t, exec::ExecutorContext& ctx) {
        jvm::MethodScope executor(ctx.stack(), methods_.executor_run);
        jvm::MethodScope task(ctx.stack(), task_frame);
        body(t, ctx);
      },
      /*thread_per_task=*/false);
  ++stages_run_;
}

}  // namespace simprof::spark
