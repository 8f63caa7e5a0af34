// The four text/record workloads on MiniHadoop, matching the BigDataBench
// Hadoop implementations (TokenizerMapper/IntSumReducer shapes for WordCount,
// identity map for Sort, selective match for Grep, event counting for
// NaiveBayes training).
#include <cstdint>
#include <utility>

#include "data/text.h"
#include "minihadoop/hadoop.h"
#include "workloads/workloads.h"

namespace simprof::workloads {
namespace {

using data::TextCorpus;
using data::WordId;

using detail::corpus_config;
using detail::fnv_mix;
using detail::kFnvOffset;

std::vector<hadoop::InputSplit<std::uint64_t>> doc_splits(
    const TextCorpus& corpus, std::size_t num_splits) {
  std::vector<std::uint64_t> docs(corpus.num_docs());
  for (std::size_t d = 0; d < docs.size(); ++d) docs[d] = d;
  const double bytes_per_doc =
      static_cast<double>(corpus.total_bytes()) /
      static_cast<double>(std::max<std::size_t>(corpus.num_docs(), 1));
  return hadoop::make_splits(docs, num_splits, bytes_per_doc);
}

}  // namespace

WorkloadResult run_wordcount_hadoop(exec::Cluster& cluster,
                                    const WorkloadParams& p) {
  const auto corpus_sp = TextCorpus::synthesize_shared(corpus_config(p));
  const TextCorpus& corpus = *corpus_sp;
  hadoop::JobSpec<std::uint64_t, WordId, std::uint64_t> spec;
  spec.job_name = "wordcount";
  spec.mapper_name = "org.apache.hadoop.examples.WordCount$TokenizerMapper.map";
  spec.reducer_name = "org.apache.hadoop.examples.WordCount$IntSumReducer.reduce";
  spec.map_fn = [&corpus](const std::uint64_t& doc,
                          std::vector<std::pair<WordId, std::uint64_t>>& out) {
    for (WordId w : corpus.doc(doc)) out.emplace_back(w, 1);
  };
  spec.combine_fn = [](const std::uint64_t& a, const std::uint64_t& b) {
    return a + b;
  };
  spec.reduce_fn = [](const WordId&, const std::vector<std::uint64_t>& vs) {
    std::uint64_t s = 0;
    for (auto v : vs) s += v;
    return s;
  };
  spec.map_instrs_per_record = 3000;
  spec.map_instrs_per_emit = 13;

  hadoop::MapReduceJob<std::uint64_t, WordId, std::uint64_t> job(
      cluster, hadoop::HadoopConfig{}, spec);
  auto out = job.run(doc_splits(corpus, 3 * cluster.num_cores() + 2));

  WorkloadResult res;
  res.records_out = out.size();
  std::uint64_t total = 0, h = kFnvOffset;
  for (const auto& [w, c] : out) {
    total += c;
    h = fnv_mix(h, (static_cast<std::uint64_t>(w) << 32) | c);
  }
  SIMPROF_ASSERT(total == corpus.words().size(),
                 "hadoop wordcount lost words");
  res.checksum = h;
  cluster.finish();
  return res;
}

WorkloadResult run_sort_hadoop(exec::Cluster& cluster,
                               const WorkloadParams& p) {
  const auto corpus_sp = TextCorpus::synthesize_shared(corpus_config(p));
  const TextCorpus& corpus = *corpus_sp;
  // Hadoop Sort: identity mapper over individual records (words); the
  // framework's sort/merge machinery does all the work. No combiner.
  std::vector<WordId> records(corpus.words().begin(), corpus.words().end());

  hadoop::JobSpec<WordId, WordId, std::uint32_t> spec;
  spec.job_name = "sort";
  spec.mapper_name = "org.apache.hadoop.examples.Sort$IdentityMapper.map";
  spec.reducer_name = "org.apache.hadoop.examples.Sort$IdentityReducer.reduce";
  spec.map_fn = [](const WordId& w,
                   std::vector<std::pair<WordId, std::uint32_t>>& out) {
    out.emplace_back(w, 1);
  };
  spec.reduce_fn = [](const WordId&, const std::vector<std::uint32_t>& vs) {
    return static_cast<std::uint32_t>(vs.size());
  };
  spec.map_instrs_per_record = 14;
  spec.map_instrs_per_emit = 8;
  spec.reduce_instrs_per_value = 8;

  hadoop::MapReduceJob<WordId, WordId, std::uint32_t> job(
      cluster, hadoop::HadoopConfig{}, spec);
  auto out =
      job.run(hadoop::make_splits(records, 3 * cluster.num_cores() + 2, 8.0));

  WorkloadResult res;
  res.records_out = out.size();
  std::uint64_t total = 0, h = kFnvOffset;
  for (const auto& [w, c] : out) {
    total += c;
    h = fnv_mix(h, w);
  }
  SIMPROF_ASSERT(total == records.size(), "hadoop sort lost records");
  res.checksum = h;
  cluster.finish();
  return res;
}

WorkloadResult run_grep_hadoop(exec::Cluster& cluster,
                               const WorkloadParams& p) {
  // Same input upscaling as grep_sp: grep is scan-dominated.
  WorkloadParams grep_params = p;
  grep_params.scale = p.scale * 4.0;
  const auto corpus_sp =
      TextCorpus::synthesize_shared(corpus_config(grep_params));
  const TextCorpus& corpus = *corpus_sp;
  const WordId pattern = static_cast<WordId>(corpus.vocabulary() / 64 + 3);

  hadoop::JobSpec<std::uint64_t, std::uint64_t, std::uint64_t> spec;
  spec.job_name = "grep";
  spec.mapper_name = "org.apache.hadoop.examples.Grep$RegexMapper.map";
  spec.reducer_name = "org.apache.hadoop.examples.Grep$LongSumReducer.reduce";
  spec.map_fn = [&corpus, pattern](
                    const std::uint64_t& doc,
                    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
    for (WordId w : corpus.doc(doc)) {
      if (w == pattern) {
        out.emplace_back(doc, 1);
        return;
      }
    }
  };
  spec.reduce_fn = [](const std::uint64_t&,
                      const std::vector<std::uint64_t>& vs) {
    std::uint64_t s = 0;
    for (auto v : vs) s += v;
    return s;
  };
  spec.map_instrs_per_record = 4600;  // regex scan of the whole line
  spec.map_instrs_per_emit = 12;

  hadoop::MapReduceJob<std::uint64_t, std::uint64_t, std::uint64_t> job(
      cluster, hadoop::HadoopConfig{}, spec);
  auto out = job.run(doc_splits(corpus, 3 * cluster.num_cores() + 2));

  WorkloadResult res;
  res.records_out = out.size();
  std::uint64_t expected = 0;
  for (std::size_t d = 0; d < corpus.num_docs(); ++d) {
    for (WordId w : corpus.doc(d)) {
      if (w == pattern) {
        ++expected;
        break;
      }
    }
  }
  SIMPROF_ASSERT(out.size() == expected, "hadoop grep match count wrong");
  res.checksum = expected;
  cluster.finish();
  return res;
}

WorkloadResult run_bayes_hadoop(exec::Cluster& cluster,
                                const WorkloadParams& p) {
  constexpr std::uint32_t kClasses = 4;
  const auto corpus_sp =
      TextCorpus::synthesize_shared(corpus_config(p, kClasses));
  const TextCorpus& corpus = *corpus_sp;

  hadoop::JobSpec<std::uint64_t, std::uint64_t, std::uint64_t> spec;
  spec.job_name = "bayes";
  spec.mapper_name =
      "org.apache.mahout.classifier.naivebayes.training.TrainNaiveBayesJob$Mapper.map";
  spec.reducer_name =
      "org.apache.mahout.classifier.naivebayes.training.TrainNaiveBayesJob$Reducer.reduce";
  spec.map_fn = [&corpus](
                    const std::uint64_t& doc,
                    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
    const std::uint64_t label = corpus.label(doc);
    for (WordId w : corpus.doc(doc)) out.emplace_back((label << 32) | w, 1);
  };
  spec.combine_fn = [](const std::uint64_t& a, const std::uint64_t& b) {
    return a + b;
  };
  spec.reduce_fn = [](const std::uint64_t&,
                      const std::vector<std::uint64_t>& vs) {
    std::uint64_t s = 0;
    for (auto v : vs) s += v;
    return s;
  };
  spec.map_instrs_per_record = 3800;
  spec.map_instrs_per_emit = 15;
  spec.pair_bytes = 16;

  hadoop::MapReduceJob<std::uint64_t, std::uint64_t, std::uint64_t> job(
      cluster, hadoop::HadoopConfig{}, spec);
  auto out = job.run(doc_splits(corpus, 3 * cluster.num_cores() + 2));

  WorkloadResult res;
  res.records_out = out.size();
  std::uint64_t total = 0, h = kFnvOffset;
  for (const auto& [k, c] : out) {
    total += c;
    h = fnv_mix(h, k * 31 + c);
  }
  SIMPROF_ASSERT(total == corpus.words().size(), "hadoop bayes lost events");
  res.checksum = h;
  cluster.finish();
  return res;
}

}  // namespace simprof::workloads
