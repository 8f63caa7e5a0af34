// The four text/record workloads on MiniSpark. Each mirrors its
// BigDataBench implementation shape: WordCount is the Figure 1 program
// verbatim (flatMap → map → reduceByKey → saveAsTextFile).
#include <cstdint>
#include <utility>

#include "data/text.h"
#include "minispark/rdd.h"
#include "workloads/workloads.h"

namespace simprof::workloads {
namespace {

using data::TextCorpus;
using data::WordId;
using spark::OpCost;
using spark::RddPtr;

using detail::corpus_config;
using detail::fnv_mix;
using detail::kFnvOffset;

/// docs → words pipeline shared by wc/sort/bayes.
RddPtr<WordId> tokenized_words(spark::SparkContext& sc,
                               const TextCorpus& corpus,
                               std::size_t splits) {
  auto lines = std::make_shared<spark::TextFileRDD>(sc, corpus, splits);
  return spark::flat_map<WordId>(
      lines, "org.apache.spark.examples.WordCount$$anonfun$tokenize",
      jvm::OpKind::kMap, OpCost{.instrs_per_element = 1400, .record_bytes = 8},
      [&corpus](const std::uint64_t& doc, std::vector<WordId>& out) {
        const auto words = corpus.doc(doc);
        out.insert(out.end(), words.begin(), words.end());
      });
}

}  // namespace

WorkloadResult run_wordcount_spark(exec::Cluster& cluster,
                                   const WorkloadParams& p) {
  const auto corpus_sp = TextCorpus::synthesize_shared(corpus_config(p));
  const TextCorpus& corpus = *corpus_sp;
  spark::SparkContext sc(cluster);
  const std::size_t splits = sc.default_parallelism() + cluster.num_cores() / 2;

  auto words = tokenized_words(sc, corpus, splits);
  auto pairs = spark::map<std::pair<WordId, std::uint64_t>>(
      words, "org.apache.spark.examples.WordCount$$anonfun$toPair",
      jvm::OpKind::kMap, OpCost{.instrs_per_element = 9, .record_bytes = 12},
      [](const WordId& w) { return std::make_pair(w, std::uint64_t{1}); });
  auto counts = spark::reduce_by_key(
      pairs, [](const std::uint64_t& a, const std::uint64_t& b) { return a + b; },
      sc.default_parallelism() / 2,
      OpCost{.instrs_per_element = 30, .record_bytes = 12});

  WorkloadResult res;
  res.records_out = spark::save_as_text_file(counts, /*record_bytes=*/14.0);
  // Functional digest: total count must equal the corpus word count.
  auto collected = spark::collect(counts);
  std::uint64_t total = 0, h = kFnvOffset;
  for (const auto& [w, c] : collected) {
    total += c;
    h = fnv_mix(h, (static_cast<std::uint64_t>(w) << 32) | c);
  }
  SIMPROF_ASSERT(total == corpus.words().size(),
                 "wordcount lost or duplicated words");
  res.checksum = h;
  cluster.finish();
  return res;
}

WorkloadResult run_sort_spark(exec::Cluster& cluster,
                              const WorkloadParams& p) {
  const auto corpus_sp = TextCorpus::synthesize_shared(corpus_config(p));
  const TextCorpus& corpus = *corpus_sp;
  spark::SparkContext sc(cluster);
  const std::size_t splits = sc.default_parallelism() + cluster.num_cores() / 2;
  const double vocab = static_cast<double>(corpus.vocabulary());

  auto words = tokenized_words(sc, corpus, splits);
  auto pairs = spark::map<std::pair<WordId, std::uint32_t>>(
      words, "org.apache.spark.examples.Sort$$anonfun$toPair",
      jvm::OpKind::kMap, OpCost{.instrs_per_element = 8, .record_bytes = 12},
      [](const WordId& w) { return std::make_pair(w, std::uint32_t{1}); });
  auto sorted = spark::sort_by_key(
      pairs, [vocab](const WordId& w) { return static_cast<double>(w) / vocab; },
      sc.default_parallelism() / 2,
      OpCost{.instrs_per_element = 24, .record_bytes = 12});

  WorkloadResult res;
  auto out = spark::collect(sorted);
  res.records_out = out.size();
  SIMPROF_ASSERT(out.size() == corpus.words().size(), "sort dropped records");
  std::uint64_t h = kFnvOffset;
  WordId prev = 0;
  bool is_sorted = true;
  // Partitions are range-contiguous, so the concatenation must be sorted.
  for (const auto& [w, v] : out) {
    (void)v;
    if (w < prev) is_sorted = false;
    prev = w;
    h = fnv_mix(h, w);
  }
  SIMPROF_ASSERT(is_sorted, "sort output out of order");
  res.checksum = h;
  cluster.finish();
  return res;
}

WorkloadResult run_grep_spark(exec::Cluster& cluster,
                              const WorkloadParams& p) {
  // Grep streams far more raw text per unit of downstream work than the
  // other microbenchmarks; BigDataBench feeds it the same 10G input, so the
  // corpus here is scaled up to keep the run length comparable.
  WorkloadParams grep_params = p;
  grep_params.scale = p.scale * 4.0;
  const auto corpus_sp =
      TextCorpus::synthesize_shared(corpus_config(grep_params));
  const TextCorpus& corpus = *corpus_sp;
  spark::SparkContext sc(cluster);
  const std::size_t splits = sc.default_parallelism() + cluster.num_cores() / 2;
  // Pattern: a mid-frequency word — rare enough that matches are selective.
  const WordId pattern = static_cast<WordId>(corpus.vocabulary() / 64 + 3);

  auto lines = std::make_shared<spark::TextFileRDD>(sc, corpus, splits);
  auto matches = spark::filter(
      lines, "org.apache.spark.examples.Grep$$anonfun$matches",
      jvm::OpKind::kMap, OpCost{.instrs_per_element = 4600, .record_bytes = 900},
      [&corpus, pattern](const std::uint64_t& doc) {
        for (WordId w : corpus.doc(doc)) {
          if (w == pattern) return true;
        }
        return false;
      });

  WorkloadResult res;
  res.records_out = spark::save_as_text_file(matches, /*record_bytes=*/900.0);
  std::uint64_t expected = 0;
  for (std::size_t d = 0; d < corpus.num_docs(); ++d) {
    for (WordId w : corpus.doc(d)) {
      if (w == pattern) {
        ++expected;
        break;
      }
    }
  }
  SIMPROF_ASSERT(res.records_out == expected, "grep match count wrong");
  res.checksum = expected;
  cluster.finish();
  return res;
}

WorkloadResult run_bayes_spark(exec::Cluster& cluster,
                               const WorkloadParams& p) {
  constexpr std::uint32_t kClasses = 4;
  const auto corpus_sp =
      TextCorpus::synthesize_shared(corpus_config(p, kClasses));
  const TextCorpus& corpus = *corpus_sp;
  spark::SparkContext sc(cluster);
  const std::size_t splits = sc.default_parallelism() + cluster.num_cores() / 2;

  auto lines = std::make_shared<spark::TextFileRDD>(sc, corpus, splits);
  // Training: emit ((label, word) → 1) for every token; the 64-bit key packs
  // label and word so the standard reduceByKey path aggregates the model.
  auto events = spark::flat_map<std::pair<std::uint64_t, std::uint64_t>>(
      lines, "org.apache.spark.mllib.classification.NaiveBayes$$anonfun$train",
      jvm::OpKind::kMap,
      OpCost{.instrs_per_element = 2400,
             .record_bytes = 16,
             .aux_bytes_per_element = 24},
      [&corpus](const std::uint64_t& doc,
                std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
        const std::uint64_t label = corpus.label(doc);
        for (WordId w : corpus.doc(doc)) {
          out.emplace_back((label << 32) | w, 1);
        }
      });
  auto model = spark::reduce_by_key(
      events,
      [](const std::uint64_t& a, const std::uint64_t& b) { return a + b; },
      sc.default_parallelism() / 2,
      OpCost{.instrs_per_element = 34, .record_bytes = 16});

  WorkloadResult res;
  auto counts = spark::collect(model);
  std::uint64_t total = 0, h = kFnvOffset;
  for (const auto& [k, c] : counts) {
    total += c;
    h = fnv_mix(h, k * 31 + c);
  }
  SIMPROF_ASSERT(total == corpus.words().size(),
                 "bayes event counts inconsistent");
  res.records_out = counts.size();
  res.checksum = h;
  cluster.finish();
  return res;
}

}  // namespace simprof::workloads
