// Unit tests for the execution substrate: sampling-unit accounting, snapshot
// hooks, wave scheduling, thread-per-task mode, migration events, the
// profiled-core-only simulation rule and the profiled core's one-way stop.
#include <gtest/gtest.h>

#include <vector>

#include "exec/cluster.h"
#include "exec/kernels.h"
#include "jvm/call_stack.h"
#include "support/assert.h"
#include "test_util.h"

namespace simprof::exec {
namespace {

/// Test hook recording every snapshot and unit boundary.
class RecordingHook final : public ProfilingHook {
 public:
  void on_snapshot(std::span<const jvm::MethodId> stack) override {
    snapshots.emplace_back(stack.begin(), stack.end());
  }
  void on_unit_boundary(const hw::PmuCounters& delta,
                        const hw::MavBlock& mav) override {
    units.push_back(delta);
    mavs.push_back(mav);
  }
  std::vector<std::vector<jvm::MethodId>> snapshots;
  std::vector<hw::PmuCounters> units;
  std::vector<hw::MavBlock> mavs;
};

TEST(Cluster, ConfigValidation) {
  auto cfg = testing::tiny_cluster_config();
  cfg.snapshot_interval = 30'000;  // does not divide unit size
  EXPECT_THROW(Cluster{cfg}, ContractViolation);
  cfg = testing::tiny_cluster_config();
  cfg.profiled_core = 99;
  EXPECT_THROW(Cluster{cfg}, ContractViolation);
}

TEST(Cluster, SnapshotsFireEveryIntervalWithLiveStack) {
  Cluster cluster(testing::tiny_cluster_config());
  RecordingHook hook;
  cluster.set_profiling_hook(&hook);
  auto& ctx = cluster.context(0);
  const auto m = cluster.methods().intern("test.Method.run",
                                          jvm::OpKind::kMap);
  {
    jvm::MethodScope scope(ctx.stack(), m);
    ctx.compute(35'000);  // 3 snapshot boundaries at 10k, 20k, 30k
  }
  ASSERT_EQ(hook.snapshots.size(), 3u);
  for (const auto& s : hook.snapshots) {
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0], m);
  }
}

TEST(Cluster, UnitBoundariesCarryCounterDeltas) {
  Cluster cluster(testing::tiny_cluster_config());
  RecordingHook hook;
  cluster.set_profiling_hook(&hook);
  auto& ctx = cluster.context(0);
  ctx.compute(250'000);  // 2.5 units of 100k
  ASSERT_EQ(hook.units.size(), 2u);
  EXPECT_EQ(hook.units[0].instructions, 100'000u);
  EXPECT_EQ(hook.units[1].instructions, 100'000u);
  EXPECT_GT(hook.units[0].cycles, 0u);

  cluster.finish();  // flush the half unit
  ASSERT_EQ(hook.units.size(), 3u);
  EXPECT_EQ(hook.units[2].instructions, 50'000u);
}

TEST(Cluster, UnitBoundariesCarryMavsThatResetPerUnit) {
  Cluster cluster(testing::tiny_cluster_config());
  RecordingHook hook;
  cluster.set_profiling_hook(&hook);
  auto& ctx = cluster.context(0);
  auto stream = hw::AccessStream::strided(0, 64 * 4096);
  ctx.execute(200'000, stream);  // 2 units of 100k with memory traffic
  ASSERT_EQ(hook.mavs.size(), 2u);
  ASSERT_EQ(hook.mavs.size(), hook.units.size());
  for (std::size_t i = 0; i < hook.mavs.size(); ++i) {
    const auto& m = hook.mavs[i];
    EXPECT_GT(m.total(), 0u) << "unit " << i;
    // Both halves of the MAV count the same touches: the reuse histogram
    // (cold bucket included) and the level histogram must agree in mass.
    std::uint64_t reuse_sum = 0;
    for (std::size_t b = 0; b < hw::kReuseBuckets; ++b) {
      reuse_sum += m.reuse(b);
    }
    std::uint64_t level_sum = 0;
    for (std::size_t l = 0; l < hw::kLevelSlots; ++l) {
      level_sum += m.counts[hw::kReuseBuckets + l];
    }
    EXPECT_EQ(reuse_sum, level_sum) << "unit " << i;
    // A fresh sequential sweep begins with a cold first touch.
    if (i == 0) EXPECT_GT(m.reuse(hw::kColdBucket), 0u);
  }
  // The tracker resets at every unit boundary: a compute-only unit right
  // after the memory-heavy ones reports an all-zero MAV, not a carry-over.
  ctx.compute(100'000);
  ASSERT_EQ(hook.mavs.size(), 3u);
  EXPECT_EQ(hook.mavs[2].total(), 0u);
  EXPECT_EQ(hook.mavs[2], hw::MavBlock{});
}

TEST(Cluster, FinishIgnoresTinyTail) {
  Cluster cluster(testing::tiny_cluster_config());
  RecordingHook hook;
  cluster.set_profiling_hook(&hook);
  cluster.context(0).compute(100'500);  // tail of 500 < snapshot interval
  cluster.finish();
  EXPECT_EQ(hook.units.size(), 1u);
}

TEST(Cluster, StoppedCoreOnlyCountsSkippedInstructions) {
  Cluster cluster(testing::tiny_cluster_config());
  RecordingHook hook;
  cluster.set_profiling_hook(&hook);
  auto& ctx = cluster.context(0);
  auto warm = hw::AccessStream::strided(0, 64 * 4096);
  ctx.execute(150'000, warm);  // one unit plus a 50k partial unit
  ASSERT_EQ(hook.units.size(), 1u);
  const hw::PmuCounters before = ctx.counters();
  const std::size_t snapshots = hook.snapshots.size();

  ctx.stop();
  EXPECT_TRUE(ctx.stopped());
  auto tail = hw::AccessStream::strided(64 * 4096, 64 * 4096);
  ctx.execute(250'000, tail);
  auto drain = hw::AccessStream::strided(0, 64 * 512);
  ctx.execute(0, drain);
  ctx.compute(30'000);

  EXPECT_EQ(ctx.counters().instructions, before.instructions);
  EXPECT_EQ(ctx.counters().cycles, before.cycles);
  EXPECT_EQ(ctx.counters().line_touches, before.line_touches);
  EXPECT_EQ(ctx.counters().l1_misses, before.l1_misses);
  EXPECT_EQ(ctx.counters().migrations, before.migrations);
  EXPECT_EQ(ctx.skipped_instrs(), 280'000u);
  EXPECT_EQ(hook.units.size(), 1u);
  EXPECT_EQ(hook.snapshots.size(), snapshots);

  // The 50k partial unit would fire without the stop; a stopped core has
  // no trailing unit.
  cluster.finish();
  EXPECT_EQ(hook.units.size(), 1u);
}

TEST(Cluster, StoppedCoreKeepsTheGeneratorInStep) {
  // Workload code draws from rng() between boundaries, so the stopped core
  // still takes one migration draw per crossed unit boundary.
  Cluster detailed(testing::tiny_cluster_config());
  Cluster stopped(testing::tiny_cluster_config());
  detailed.context(0).compute(150'000);
  stopped.context(0).compute(150'000);
  stopped.context(0).stop();
  for (Cluster* c : {&detailed, &stopped}) {
    auto& ctx = c->context(0);
    ctx.compute(120'000);
    ctx.rng().next_u64();
    ctx.compute(230'000);
  }
  EXPECT_EQ(stopped.context(0).skipped_instrs(), 350'000u);
  EXPECT_EQ(stopped.context(0).rng().state(),
            detailed.context(0).rng().state());
}

TEST(Cluster, NonProfiledCoreSkipsCacheSimulation) {
  Cluster cluster(testing::tiny_cluster_config());
  RecordingHook hook;
  cluster.set_profiling_hook(&hook);
  auto& other = cluster.context(1);
  auto stream = hw::AccessStream::strided(0, 1 << 16);
  other.execute(200'000, stream);
  EXPECT_TRUE(hook.units.empty());              // no unit boundaries fired
  EXPECT_EQ(other.counters().line_touches, 0u); // traffic skipped
  EXPECT_EQ(other.counters().instructions, 200'000u);  // clock advanced
}

TEST(Cluster, ProfiledCoreChargesTraffic) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  auto stream = hw::AccessStream::strided(0, 64 * 100);
  ctx.execute(50'000, stream);
  EXPECT_EQ(ctx.counters().line_touches, 100u);
  // Cycles exceed pure base-CPI cost because of the memory traffic.
  const double base = 50'000 *
      cluster.memory().config().cost.base_cpi;
  EXPECT_GT(ctx.counters().cycles, static_cast<std::uint64_t>(base));
}

TEST(Cluster, RunStageDealsTasksRoundRobinAcrossCores) {
  Cluster cluster(testing::tiny_cluster_config());
  std::vector<std::uint32_t> ran_on;
  std::vector<std::size_t> indices;
  cluster.run_stage("s", 5, [&](std::size_t task, ExecutorContext& ctx) {
    ran_on.push_back(ctx.core());
    indices.push_back(task);
  });
  EXPECT_EQ(ran_on, (std::vector<std::uint32_t>{0, 1, 0, 1, 0}));
  // Each body receives its task's index, in deal order.
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Cluster, WavePressureDropsForStragglers) {
  Cluster cluster(testing::tiny_cluster_config());
  std::vector<std::uint32_t> eff_ways;
  // 2 cores → waves of 2 then 1
  cluster.run_stage("s", 3, [&](std::size_t, ExecutorContext&) {
    eff_ways.push_back(cluster.memory().llc().effective_ways());
  });
  ASSERT_EQ(eff_ways.size(), 3u);
  EXPECT_LT(eff_ways[0], eff_ways[2]);  // full wave pressured, straggler not
}

TEST(Cluster, ThreadPerTaskAdvancesThreadIds) {
  Cluster cluster(testing::tiny_cluster_config());
  std::vector<std::uint64_t> ids;
  cluster.run_stage(
      "hadoop", 4,
      [&](std::size_t, ExecutorContext& ctx) { ids.push_back(ctx.thread_id()); },
      /*thread_per_task=*/true);
  // Core 0 runs tasks 0 and 2 on fresh threads 1 and 2.
  EXPECT_EQ(ids[0], 1u);
  EXPECT_EQ(ids[2], 2u);
}

TEST(Cluster, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Cluster cluster(testing::tiny_cluster_config(123));
    auto& ctx = cluster.context(0);
    auto s = hw::AccessStream::random(0, 1 << 20, 5'000, ctx.rng());
    ctx.execute(400'000, s);
    return ctx.counters().cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Cluster, MigrationEventsOccurAtConfiguredRate) {
  auto cfg = testing::tiny_cluster_config();
  cfg.migration_prob_per_unit = 1.0;  // force a migration at every boundary
  Cluster cluster(cfg);
  auto& ctx = cluster.context(0);
  ctx.compute(500'000);
  EXPECT_EQ(ctx.counters().migrations, 5u);

  auto cfg2 = testing::tiny_cluster_config();
  cfg2.migration_prob_per_unit = 0.0;
  Cluster c2(cfg2);
  c2.context(0).compute(500'000);
  EXPECT_EQ(c2.context(0).counters().migrations, 0u);
}

TEST(Cluster, ProfiledCoreIsConfigurable) {
  auto cfg = testing::tiny_cluster_config();
  cfg.profiled_core = 1;
  Cluster cluster(cfg);
  RecordingHook hook;
  cluster.set_profiling_hook(&hook);
  cluster.context(0).compute(150'000);  // not profiled anymore
  EXPECT_TRUE(hook.units.empty());
  cluster.context(1).compute(150'000);
  EXPECT_EQ(hook.units.size(), 1u);
  EXPECT_TRUE(cluster.context(1).is_profiled());
  EXPECT_FALSE(cluster.context(0).is_profiled());
}

TEST(Kernels, ScanRegionChargesProportionally) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  scan_region(ctx, 0, 6400, 2.0);
  EXPECT_EQ(ctx.counters().instructions, 12'800u);
  EXPECT_EQ(ctx.counters().line_touches, 100u);
}

TEST(Kernels, QuicksortTouchesEachLevelOnce) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  // 4096 elements of 64B with cutoff 2048: one partition pass over the full
  // region plus resident leaf passes, and at most one extra partition pass
  // when the random split leaves a half above the cutoff → between 2× and
  // ~2.7× the region in line touches.
  quicksort_traffic(ctx, 0, 4096, 64, default_kernel_costs(), 2048);
  EXPECT_GE(ctx.counters().line_touches, 8192u);
  EXPECT_LE(ctx.counters().line_touches, 11'000u);
}

TEST(Kernels, HashAggregateEmitsTouches) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  hash_aggregate(ctx, 0, 1 << 16, 1000, 0.0, default_kernel_costs());
  EXPECT_GT(ctx.counters().line_touches, 1000u);
  EXPECT_GT(ctx.counters().instructions, 30'000u);
}

TEST(Kernels, WriteStreamCompressionCostsMore) {
  Cluster a(testing::tiny_cluster_config());
  Cluster b(testing::tiny_cluster_config());
  write_stream(a.context(0), 0, 64'000, false, default_kernel_costs());
  write_stream(b.context(0), 0, 64'000, true, default_kernel_costs());
  EXPECT_GT(b.context(0).counters().instructions,
            a.context(0).counters().instructions);
}

TEST(Kernels, ZeroWorkIsFree) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  scan_region(ctx, 0, 0, 1.0);
  hash_aggregate(ctx, 0, 0, 0, 0.0, default_kernel_costs());
  quicksort_traffic(ctx, 0, 0, 8, default_kernel_costs());
  merge_runs(ctx, 0, 0, 0, 4, default_kernel_costs());
  EXPECT_EQ(ctx.counters().instructions, 0u);
  EXPECT_EQ(ctx.counters().line_touches, 0u);
}

}  // namespace
}  // namespace simprof::exec
