// SparkContext: the driver for the MiniSpark engine.
//
// Mirrors the execution model of Section II-A: jobs are DAGs of stages split
// at shuffle boundaries; each stage spawns one task per partition; executor
// threads live for the whole job (one per simulated core). The RDD layer
// (rdd.h) builds lineage lazily and calls back into run_stage to execute.
#pragma once

#include <cstdint>
#include <string_view>

#include "data/text.h"
#include "exec/cluster.h"
#include "exec/kernels.h"
#include "minispark/names.h"
#include "support/rng.h"

namespace simprof::spark {

struct SparkConfig {
  /// Default partitions per stage ≈ partitions_per_core × cores, like
  /// spark.default.parallelism.
  std::uint32_t partitions_per_core = 3;
  exec::KernelCosts costs;
};

class SparkContext {
 public:
  SparkContext(exec::Cluster& cluster, SparkConfig cfg = {});

  exec::Cluster& cluster() { return cluster_; }
  const SparkConfig& config() const { return cfg_; }
  const exec::KernelCosts& costs() const { return cfg_.costs; }
  SparkMethods& methods() { return methods_; }

  std::uint32_t default_parallelism() const {
    return cfg_.partitions_per_core * cluster_.num_cores();
  }

  int next_rdd_id() { return rdd_counter_++; }
  int next_shuffle_id() { return shuffle_counter_++; }

  /// Execute one stage of `num_tasks` tasks, task t as body(t, ctx) under
  /// the standard executor / task-runner framework frames; `shuffle_map`
  /// picks the Spark task type frame (ShuffleMapTask vs ResultTask).
  void run_stage(std::string_view stage_name, bool shuffle_map,
                 std::size_t num_tasks, const exec::StageBody& body);

  std::uint32_t stages_run() const { return stages_run_; }

 private:
  exec::Cluster& cluster_;
  SparkConfig cfg_;
  SparkMethods methods_;
  int rdd_counter_ = 0;
  int shuffle_counter_ = 0;
  std::uint32_t stages_run_ = 0;
};

}  // namespace simprof::spark
