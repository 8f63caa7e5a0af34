// Functional tests for the MiniSpark RDD layer: lazy lineage, shuffle
// semantics, and exact results for the Figure 1 WordCount program shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "data/text.h"
#include "minispark/rdd.h"
#include "test_util.h"

namespace simprof::spark {
namespace {

using data::TextCorpus;
using data::WordId;

data::TextConfig tiny_text(std::uint64_t seed = 3) {
  data::TextConfig cfg;
  cfg.num_words = 6'000;
  cfg.vocabulary = 400;
  cfg.mean_doc_words = 40;
  cfg.seed = seed;
  return cfg;
}

class SparkTest : public ::testing::Test {
 protected:
  SparkTest()
      : cluster_(testing::tiny_cluster_config()),
        corpus_(TextCorpus::synthesize(tiny_text())),
        sc_(cluster_) {}

  exec::Cluster cluster_;
  TextCorpus corpus_;
  SparkContext sc_;
};

TEST_F(SparkTest, ParallelizeCollectRoundTrip) {
  auto rdd = std::make_shared<ParallelizeRDD<int>>(
      sc_, std::vector<std::vector<int>>{{1, 2}, {3}, {4, 5}}, 4.0, "ints");
  EXPECT_EQ(rdd->num_partitions(), 3u);
  EXPECT_EQ(collect(RddPtr<int>(rdd)), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_F(SparkTest, MapAndFilterSemantics) {
  auto src = std::make_shared<ParallelizeRDD<int>>(
      sc_, std::vector<std::vector<int>>{{1, 2, 3, 4, 5, 6}}, 4.0, "ints");
  auto doubled = map<int>(src, "test.Double.map", jvm::OpKind::kMap, {},
                          [](const int& x) { return 2 * x; });
  auto big = filter(doubled, "test.Big.filter", jvm::OpKind::kMap, {},
                    [](const int& x) { return x > 6; });
  EXPECT_EQ(collect(big), (std::vector<int>{8, 10, 12}));
}

TEST_F(SparkTest, FlatMapExpandsElements) {
  auto src = std::make_shared<ParallelizeRDD<int>>(
      sc_, std::vector<std::vector<int>>{{2, 3}}, 4.0, "ints");
  auto rep = flat_map<int>(src, "test.Repeat.flatMap", jvm::OpKind::kMap, {},
                           [](const int& x, std::vector<int>& out) {
                             for (int i = 0; i < x; ++i) out.push_back(x);
                           });
  EXPECT_EQ(collect(rep), (std::vector<int>{2, 2, 3, 3, 3}));
}

TEST_F(SparkTest, WordCountMatchesReferenceCounts) {
  // The Figure 1 program: textFile → flatMap → map → reduceByKey.
  auto lines = std::make_shared<TextFileRDD>(sc_, corpus_, 5);
  auto words = flat_map<WordId>(
      lines, "wc.tokenize", jvm::OpKind::kMap, {},
      [this](const std::uint64_t& doc, std::vector<WordId>& out) {
        const auto ws = corpus_.doc(doc);
        out.insert(out.end(), ws.begin(), ws.end());
      });
  auto pairs = map<std::pair<WordId, std::uint64_t>>(
      words, "wc.toPair", jvm::OpKind::kMap, {}, [](const WordId& w) {
        return std::make_pair(w, std::uint64_t{1});
      });
  auto counts = reduce_by_key(
      pairs, [](const std::uint64_t& a, const std::uint64_t& b) { return a + b; },
      4, OpCost{});
  const auto result = collect(counts);

  std::map<WordId, std::uint64_t> reference;
  for (WordId w : corpus_.words()) ++reference[w];
  std::map<WordId, std::uint64_t> got(result.begin(), result.end());
  EXPECT_EQ(got, reference);
}

TEST_F(SparkTest, SortByKeyGloballySorted) {
  auto lines = std::make_shared<TextFileRDD>(sc_, corpus_, 4);
  auto pairs = flat_map<std::pair<WordId, std::uint32_t>>(
      lines, "sort.toPairs", jvm::OpKind::kMap, {},
      [this](const std::uint64_t& doc,
             std::vector<std::pair<WordId, std::uint32_t>>& out) {
        for (WordId w : corpus_.doc(doc)) out.emplace_back(w, 1u);
      });
  const double vocab = corpus_.vocabulary();
  auto sorted = sort_by_key(
      pairs, [vocab](const WordId& w) { return w / vocab; }, 4, OpCost{});
  const auto out = collect(sorted);
  ASSERT_EQ(out.size(), corpus_.words().size());
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].first, out[i].first) << "at " << i;
  }
}

TEST_F(SparkTest, StagesSplitAtShuffleBoundaries) {
  using P = std::pair<WordId, std::uint64_t>;
  auto src = std::make_shared<ParallelizeRDD<P>>(
      sc_, std::vector<std::vector<P>>{{{1, 1}, {2, 4}}, {{1, 2}}}, 8.0,
      "pairs");
  // Each map function notes the stages run before the call: the stage it
  // runs in is the next one.
  std::vector<std::uint32_t> upstream_stages;
  std::vector<std::uint32_t> middle_stages;
  auto tagged = map<P>(src, "test.Upstream.map", jvm::OpKind::kMap, {},
                       [&](const P& kv) {
                         upstream_stages.push_back(sc_.stages_run());
                         return kv;
                       });
  auto reduced = reduce_by_key(
      tagged, [](const std::uint64_t& a, const std::uint64_t& b) { return a + b; },
      2, OpCost{});
  auto middle = map<P>(reduced, "test.Middle.map", jvm::OpKind::kMap, {},
                       [&](const P& kv) {
                         middle_stages.push_back(sc_.stages_run());
                         return kv;
                       });
  auto sorted = sort_by_key(
      middle, [](const WordId& w) { return w / 4.0; }, 2, OpCost{});
  EXPECT_EQ(sc_.stages_run(), 0u);  // lazy until an action
  EXPECT_EQ(collect(sorted), (std::vector<P>{{1, 3}, {2, 4}}));
  // reduceByKey's map stage, then sortByKey's, then the result stage.
  EXPECT_EQ(sc_.stages_run(), 3u);
  EXPECT_EQ(upstream_stages, (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(middle_stages, (std::vector<std::uint32_t>{1, 1}));
  collect(sorted);
  EXPECT_EQ(sc_.stages_run(), 4u);  // shuffles reused, only result re-runs
  EXPECT_EQ(upstream_stages.size(), 3u);
  EXPECT_EQ(middle_stages.size(), 2u);
}

TEST_F(SparkTest, SaveAsTextFileCountsRecords) {
  auto src = std::make_shared<ParallelizeRDD<int>>(
      sc_, std::vector<std::vector<int>>{{1, 2, 3}, {4}}, 4.0, "ints");
  EXPECT_EQ(save_as_text_file(RddPtr<int>(src), 10.0), 4u);
}

TEST_F(SparkTest, TextFileSplitsCoverAllDocsOnce) {
  auto lines = std::make_shared<TextFileRDD>(sc_, corpus_, 7);
  auto docs = collect(RddPtr<std::uint64_t>(lines));
  std::sort(docs.begin(), docs.end());
  ASSERT_EQ(docs.size(), corpus_.num_docs());
  for (std::size_t i = 0; i < docs.size(); ++i) EXPECT_EQ(docs[i], i);
  std::uint64_t bytes = 0;
  for (std::size_t p = 0; p < lines->num_partitions(); ++p) {
    bytes += lines->split_bytes(p);
  }
  EXPECT_EQ(bytes, corpus_.total_bytes());
}

TEST_F(SparkTest, PipelinedComputeChargesSimulatedWork) {
  auto lines = std::make_shared<TextFileRDD>(sc_, corpus_, 3);
  auto words = flat_map<WordId>(
      lines, "wc.tokenize", jvm::OpKind::kMap,
      OpCost{.instrs_per_element = 100},
      [this](const std::uint64_t& doc, std::vector<WordId>& out) {
        const auto ws = corpus_.doc(doc);
        out.insert(out.end(), ws.begin(), ws.end());
      });
  collect(words);
  // The profiled core ran at least one task: instructions and line touches
  // were charged through the cache model.
  const auto& pmu = cluster_.context(0).counters();
  EXPECT_GT(pmu.instructions, 10'000u);
  EXPECT_GT(pmu.line_touches, 100u);
}

}  // namespace
}  // namespace simprof::spark
