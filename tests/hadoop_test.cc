// Functional tests for the MiniHadoop MapReduce engine: exact results,
// spill/combiner behaviour, partitioning and configuration effects, and the
// key-ordered sort and merge kernels (minihadoop/sort.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>

#include "minihadoop/hadoop.h"
#include "minihadoop/sort.h"
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

/// Pairs whose value is their input position, so an order that breaks ties
/// differently from std::stable_sort shows as a value mismatch.
template <typename K>
std::vector<std::pair<K, std::uint64_t>> tagged(const std::vector<K>& keys) {
  std::vector<std::pair<K, std::uint64_t>> v;
  for (std::size_t i = 0; i < keys.size(); ++i) v.emplace_back(keys[i], i);
  return v;
}

/// The reference order: std::stable_sort by key.
template <typename K, typename V>
std::vector<std::pair<K, V>> stable_by_key(std::vector<std::pair<K, V>> v) {
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return v;
}

template <typename K>
std::vector<K> random_keys(Rng& rng, std::size_t n, std::uint64_t below) {
  std::vector<K> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<K>(rng.next_below(below)));
  }
  return keys;
}

TEST(SortByKey, MatchesStableSortByKey) {
  Rng rng(11);
  // Keys that differ only in their top byte: the three low passes are
  // skipped, so the result comes back from the scratch buffer.
  auto top_byte = random_keys<std::uint32_t>(rng, 2000, 4);
  for (auto& k : top_byte) k = (k << 24) | 0x00abcdefu;
  const std::vector<std::vector<std::uint32_t>> u32_cases = {
      {},
      {7},
      {3, 1, 2, 1, 3, 0, 3},
      std::vector<std::uint32_t>(1000, 42),       // all keys equal
      random_keys<std::uint32_t>(rng, 5000, 16),  // heavy duplicates
      random_keys<std::uint32_t>(rng, 5000, 1ull << 32),
      top_byte,
  };
  for (std::size_t c = 0; c < u32_cases.size(); ++c) {
    auto v = tagged(u32_cases[c]);
    const auto want = stable_by_key(v);
    sort_by_key(v);
    EXPECT_EQ(v, want) << "u32 case " << c;
  }
  // u64 keys with the high bit set, mixed with small ones.
  auto wide = random_keys<std::uint64_t>(rng, 4000, 1ull << 20);
  for (std::size_t i = 0; i < wide.size(); i += 3) wide[i] |= 1ull << 63;
  wide.push_back(~0ull);
  wide.push_back(0);
  auto v64 = tagged(wide);
  const auto want64 = stable_by_key(v64);
  sort_by_key(v64);
  EXPECT_EQ(v64, want64);
  // A signed key takes the comparison-sort path, with the same order.
  std::vector<std::pair<int, double>> signed_keys;
  for (int i = 0; i < 500; ++i) {
    signed_keys.emplace_back(static_cast<int>(rng.next_below(40)) - 20, i);
  }
  const auto want_signed = stable_by_key(signed_keys);
  sort_by_key(signed_keys);
  EXPECT_EQ(signed_keys, want_signed);
}

/// Merges `runs` (each sorted first) and checks the emitted sequence against
/// the stable sort of their concatenation.
template <typename K>
void expect_merge_matches(
    std::vector<std::vector<std::pair<K, std::uint64_t>>> runs,
    const std::string& what) {
  std::vector<std::pair<K, std::uint64_t>> concat;
  for (auto& run : runs) {
    run = stable_by_key(run);
    for (auto& kv : run) kv.second = concat.size();
    concat.insert(concat.end(), run.begin(), run.end());
  }
  std::vector<std::pair<K, std::uint64_t>> out;
  const std::vector<std::span<const std::pair<K, std::uint64_t>>> spans(
      runs.begin(), runs.end());
  merge_by_key(spans, [&](const auto& kv) { out.push_back(kv); });
  EXPECT_EQ(out, stable_by_key(concat)) << what;
}

TEST(MergeByKey, MatchesStableSortOfConcatenatedRuns) {
  Rng rng(23);
  using Run32 = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  expect_merge_matches<std::uint32_t>({}, "no runs");
  expect_merge_matches<std::uint32_t>({Run32{}, Run32{}}, "only empty runs");
  expect_merge_matches<std::uint32_t>(
      {tagged(random_keys<std::uint32_t>(rng, 300, 50))}, "single run");
  for (const std::size_t k : {2u, 3u, 7u, 33u}) {
    std::vector<Run32> runs;
    for (std::size_t r = 0; r < k; ++r) {
      // Every third run is empty; keys repeat within and across runs.
      const std::size_t len = r % 3 == 1 ? 0 : rng.next_below(400);
      runs.push_back(tagged(random_keys<std::uint32_t>(rng, len, 64)));
    }
    expect_merge_matches<std::uint32_t>(runs, std::to_string(k) + " runs");
  }
  std::vector<Run32> equal;
  for (int r = 0; r < 5; ++r) {
    equal.push_back(tagged(std::vector<std::uint32_t>(50 + r, 7)));
  }
  expect_merge_matches<std::uint32_t>(equal, "all keys equal");
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> wide;
  for (int r = 0; r < 6; ++r) {
    auto keys = random_keys<std::uint64_t>(rng, 200, 1000);
    for (std::size_t i = r; i < keys.size(); i += 2) keys[i] |= 1ull << 63;
    wide.push_back(tagged(keys));
  }
  expect_merge_matches<std::uint64_t>(wide, "u64 keys with the high bit set");
}

}  // namespace
}  // namespace simprof::hadoop
