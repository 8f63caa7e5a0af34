// Functional tests for the MiniHadoop MapReduce engine: exact results,
// spill/combiner behaviour, partitioning and configuration effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>

#include "minihadoop/hadoop.h"
#include "support/rng.h"
#include "test_util.h"

namespace simprof::hadoop {
namespace {

using Pair = std::pair<std::uint32_t, std::uint64_t>;

JobSpec<std::uint32_t, std::uint32_t, std::uint64_t> count_spec() {
  JobSpec<std::uint32_t, std::uint32_t, std::uint64_t> spec;
  spec.job_name = "count";
  spec.map_fn = [](const std::uint32_t& rec,
                   std::vector<Pair>& out) { out.emplace_back(rec % 10, 1); };
  spec.combine_fn = [](const std::uint64_t& a, const std::uint64_t& b) {
    return a + b;
  };
  spec.reduce_fn = [](const std::uint32_t&,
                      const std::vector<std::uint64_t>& vs) {
    std::uint64_t s = 0;
    for (auto v : vs) s += v;
    return s;
  };
  return spec;
}

std::vector<std::uint32_t> iota_records(std::uint32_t n) {
  std::vector<std::uint32_t> r(n);
  for (std::uint32_t i = 0; i < n; ++i) r[i] = i;
  return r;
}

TEST(Hadoop, CountJobProducesExactHistogram) {
  exec::Cluster cluster(testing::tiny_cluster_config());
  MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> job(
      cluster, HadoopConfig{}, count_spec());
  const auto out = job.run(make_splits(iota_records(1000), 6, 8.0));
  std::map<std::uint32_t, std::uint64_t> got(out.begin(), out.end());
  ASSERT_EQ(got.size(), 10u);
  for (const auto& [k, v] : got) EXPECT_EQ(v, 100u) << "key " << k;
}

TEST(Hadoop, ResultsIdenticalWithAndWithoutCombiner) {
  exec::Cluster c1(testing::tiny_cluster_config());
  exec::Cluster c2(testing::tiny_cluster_config());
  auto with = count_spec();
  auto without = count_spec();
  without.combine_fn = nullptr;
  MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> j1(
      c1, HadoopConfig{}, with);
  MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> j2(
      c2, HadoopConfig{}, without);
  auto o1 = j1.run(make_splits(iota_records(500), 4, 8.0));
  auto o2 = j2.run(make_splits(iota_records(500), 4, 8.0));
  using Hist = std::map<std::uint32_t, std::uint64_t>;
  const Hist h1(o1.begin(), o1.end());
  const Hist h2(o2.begin(), o2.end());
  EXPECT_EQ(h1, h2);
}

TEST(Hadoop, SmallBufferForcesMultipleSpills) {
  exec::Cluster cluster(testing::tiny_cluster_config());
  HadoopConfig cfg;
  cfg.map_buffer_bytes = 1024;  // tiny buffer → many spills
  MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> job(
      cluster, cfg, count_spec());
  job.run(make_splits(iota_records(2000), 2, 8.0));
  EXPECT_GT(job.total_spills(), 10u);
}

TEST(Hadoop, LargeBufferSpillsOncePerMapper) {
  exec::Cluster cluster(testing::tiny_cluster_config());
  HadoopConfig cfg;
  cfg.map_buffer_bytes = 1 << 24;
  MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> job(
      cluster, cfg, count_spec());
  job.run(make_splits(iota_records(2000), 3, 8.0));
  EXPECT_EQ(job.total_spills(), 3u);  // exactly one final spill per mapper
}

TEST(Hadoop, ReducerCountDefaultsToCores) {
  exec::Cluster cluster(testing::tiny_cluster_config());
  MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> job(
      cluster, HadoopConfig{}, count_spec());
  EXPECT_EQ(job.num_reducers(), cluster.num_cores());
}

TEST(Hadoop, OutputSortedWithinEachReducer) {
  // Identity job: keys should come out key-grouped and sorted per reducer.
  exec::Cluster cluster(testing::tiny_cluster_config());
  JobSpec<std::uint32_t, std::uint32_t, std::uint64_t> spec;
  spec.map_fn = [](const std::uint32_t& rec, std::vector<Pair>& out) {
    out.emplace_back(rec, 1);
  };
  spec.reduce_fn = [](const std::uint32_t&,
                      const std::vector<std::uint64_t>& vs) {
    return static_cast<std::uint64_t>(vs.size());
  };
  HadoopConfig cfg;
  cfg.num_reducers = 2;
  MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> job(cluster, cfg,
                                                                spec);
  const auto out = job.run(make_splits(iota_records(200), 4, 8.0));
  ASSERT_EQ(out.size(), 200u);
  // Two reducer blocks, each internally sorted.
  std::size_t breaks = 0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].first < out[i - 1].first) ++breaks;
  }
  EXPECT_LE(breaks, 1u);
}

TEST(Hadoop, MissingFunctionsRejected) {
  exec::Cluster cluster(testing::tiny_cluster_config());
  JobSpec<std::uint32_t, std::uint32_t, std::uint64_t> spec;  // no fns
  EXPECT_THROW(
      (MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t>(
          cluster, HadoopConfig{}, spec)),
      ContractViolation);
}

TEST(Hadoop, CompressionIncreasesMapWorkNotResults) {
  auto run_with = [](bool compress) {
    exec::Cluster cluster(testing::tiny_cluster_config());
    HadoopConfig cfg;
    cfg.compress_map_output = compress;
    MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> job(
        cluster, cfg, count_spec());
    auto out = job.run(make_splits(iota_records(800), 2, 8.0));
    return std::make_pair(
        std::map<std::uint32_t, std::uint64_t>(out.begin(), out.end()),
        cluster.context(0).counters().instructions);
  };
  const auto [res_on, instrs_on] = run_with(true);
  const auto [res_off, instrs_off] = run_with(false);
  EXPECT_EQ(res_on, res_off);
  EXPECT_GT(instrs_on, instrs_off);
}

TEST(Hadoop, MakeSplitsPartitionsEverythingOnce) {
  const auto splits = make_splits(iota_records(103), 5, 4.0);
  EXPECT_EQ(splits.size(), 5u);
  std::size_t total = 0;
  for (const auto& s : splits) {
    total += s.records.size();
    EXPECT_EQ(s.bytes, static_cast<std::uint64_t>(4.0 * s.records.size()));
  }
  EXPECT_EQ(total, 103u);
}

TEST(Hadoop, MapTasksRunOnFreshThreads) {
  exec::Cluster cluster(testing::tiny_cluster_config());
  MapReduceJob<std::uint32_t, std::uint32_t, std::uint64_t> job(
      cluster, HadoopConfig{}, count_spec());
  job.run(make_splits(iota_records(100), 4, 8.0));
  // Core 0 ran 2 map tasks + 1 reduce task, each on a new thread.
  EXPECT_GE(cluster.context(0).thread_id(), 3u);
}

}  // namespace
}  // namespace simprof::hadoop
