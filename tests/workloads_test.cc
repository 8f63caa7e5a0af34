// Tests for the Table I workload registry: every configuration runs at tiny
// scale, produces sampling units, validates its own functional invariants
// (the runners assert internally), and is deterministic per seed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/profile.h"
#include "test_util.h"
#include "workloads/workloads.h"

namespace simprof::workloads {
namespace {

WorkloadParams tiny_params(std::uint64_t seed = 42) {
  WorkloadParams p;
  p.scale = 0.02;
  p.seed = seed;
  p.graph_scale_override = 11;
  p.max_iterations = 6;
  return p;
}

exec::ClusterConfig small_cluster() {
  exec::ClusterConfig cfg;
  cfg.memory.num_cores = 4;
  return cfg;
}

TEST(Registry, HasTwelveConfigsInPaperOrder) {
  const auto& all = all_workloads();
  ASSERT_EQ(all.size(), 12u);
  EXPECT_EQ(all[0].name, "sort_hp");
  EXPECT_EQ(all[1].name, "sort_sp");
  EXPECT_EQ(all[10].name, "rank_hp");
  EXPECT_EQ(all[11].name, "rank_sp");
  std::size_t spark = 0, graph = 0;
  for (const auto& w : all) {
    spark += w.framework == Framework::kSpark ? 1 : 0;
    graph += w.graph_workload ? 1 : 0;
    EXPECT_NE(w.run, nullptr);
  }
  EXPECT_EQ(spark, 6u);
  EXPECT_EQ(graph, 4u);
}

TEST(Registry, LookupByNameAndUnknownThrows) {
  EXPECT_EQ(workload("wc_sp").benchmark, "WordCount");
  EXPECT_EQ(workload("rank_hp").framework, Framework::kHadoop);
  EXPECT_THROW(workload("nope"), ContractViolation);
}

TEST(Registry, FrameworkNames) {
  EXPECT_EQ(to_string(Framework::kSpark), "spark");
  EXPECT_EQ(to_string(Framework::kHadoop), "hadoop");
}

TEST(TextScale, MonotonicAndClamped) {
  const auto small = detail::text_scale(0.001);
  const auto mid = detail::text_scale(0.5);
  const auto full = detail::text_scale(1.0);
  EXPECT_GE(small.num_words, 20'000u);
  EXPECT_LT(mid.num_words, full.num_words);
  EXPECT_LE(mid.vocabulary, full.vocabulary);
  EXPECT_THROW(detail::text_scale(0.0), ContractViolation);
}

// One parameterized smoke per workload: runs the real pipeline at tiny scale
// with the profiler attached — internal SIMPROF_ASSERTs validate functional
// correctness (word counts, sortedness, component labels, rank mass).
class WorkloadSmoke : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSmoke, RunsAndProducesUnits) {
  const WorkloadInfo& info = workload(GetParam());
  exec::Cluster cluster(small_cluster());
  core::SamplingManager manager(cluster.methods());
  cluster.set_profiling_hook(&manager);

  const WorkloadResult res = info.run(cluster, tiny_params());
  EXPECT_GT(res.records_out, 0u);
  EXPECT_GT(manager.units_collected(), 0u);
  EXPECT_GT(manager.snapshots_collected(), manager.units_collected());
  if (info.graph_workload) EXPECT_GT(res.iterations, 0u);

  core::ThreadProfile profile = manager.take_profile();
  EXPECT_GT(profile.num_methods(), 5u);
  EXPECT_GT(profile.oracle_cpi(), 0.1);
  EXPECT_LT(profile.oracle_cpi(), 20.0);
}

TEST_P(WorkloadSmoke, DeterministicChecksumPerSeed) {
  const WorkloadInfo& info = workload(GetParam());
  auto run_once = [&](std::uint64_t seed) {
    exec::Cluster cluster(small_cluster());
    return info.run(cluster, tiny_params(seed));
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.records_out, b.records_out);
  const auto c = run_once(43);
  EXPECT_NE(a.checksum, c.checksum);  // different data → different digest
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, WorkloadSmoke,
                         ::testing::Values("sort_hp", "sort_sp", "wc_hp",
                                           "wc_sp", "grep_hp", "grep_sp",
                                           "bayes_hp", "bayes_sp", "cc_hp",
                                           "cc_sp", "rank_hp", "rank_sp"));

/// Profile bytes of a scale-0.05 wc_sp run. With `reseed_unprofiled`, every
/// non-profiled core's generator is moved to an unrelated state first.
std::string wc_sp_profile_bytes(bool reseed_unprofiled) {
  exec::Cluster cluster(small_cluster());
  if (reseed_unprofiled) {
    for (std::uint32_t c = 0; c < cluster.num_cores(); ++c) {
      exec::ExecutorContext& ctx = cluster.context(c);
      if (!ctx.is_profiled()) ctx.rng().set_state(Rng(9000 + c).state());
    }
  }
  core::SamplingManager manager(cluster.methods());
  cluster.set_profiling_hook(&manager);
  WorkloadParams p = tiny_params();
  p.scale = 0.05;
  workload("wc_sp").run(cluster, p);
  cluster.finish();
  std::ostringstream out;
  manager.take_profile().save(out);
  return out.str();
}

TEST(FunctionalOnlyCores, GeneratorsNeverReachTheProfile) {
  // Non-profiled cores are functional-only (exec/executor_context.h): their
  // generators may be drawn from, or not, without changing a profile byte.
  const std::string plain = wc_sp_profile_bytes(false);
  const std::string reseeded = wc_sp_profile_bytes(true);
  EXPECT_GT(plain.size(), 1000u);
  EXPECT_TRUE(plain == reseeded);
}

TEST(FunctionalOnlyCores, ProfiledChunkSequencesArePinned) {
  // The profiled core's chunk sequence, chunk by chunk. wc_sp's map-side
  // combiner emits records in std::unordered_map order and its reduce side
  // sizes probe regions by the distinct keys merged so far; cc_sp routes
  // GraphX messages in the order of its per-partition and driver-side
  // maps. These digests were recorded with the record-by-record
  // std::unordered_map combiners and with pipeline slicing on every core.
  struct Pin {
    const char* workload;
    std::uint64_t chunks;
    std::uint64_t hash;
  };
  for (const Pin& pin : {Pin{"wc_sp", 8418, 5055630659592999693ULL},
                         Pin{"cc_sp", 106, 3085339626821805191ULL}}) {
    exec::Cluster cluster(small_cluster());
    testing::ChunkDigest digest;
    cluster.set_tape_sink(&digest);
    workload(pin.workload).run(cluster, tiny_params());
    EXPECT_EQ(digest.chunks, pin.chunks) << pin.workload;
    EXPECT_EQ(digest.hash, pin.hash) << pin.workload;
  }
}

TEST(GraphInputs, DifferentCatalogEntriesChangeBehaviour) {
  const WorkloadInfo& info = workload("cc_sp");
  auto run_on = [&](const char* input) {
    exec::Cluster cluster(small_cluster());
    auto p = tiny_params();
    p.graph_input = input;
    return info.run(cluster, p);
  };
  const auto google = run_on("Google");
  const auto road = run_on("Road");
  EXPECT_NE(google.checksum, road.checksum);
}

}  // namespace
}  // namespace simprof::workloads
