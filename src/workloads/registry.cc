#include "workloads/workloads.h"

#include "data/text.h"
#include "support/assert.h"

namespace simprof::workloads {

std::string_view to_string(Framework fw) {
  return fw == Framework::kSpark ? "spark" : "hadoop";
}

const std::vector<WorkloadInfo>& all_workloads() {
  static const std::vector<WorkloadInfo> registry = {
      {"sort_hp", "Sort", Framework::kHadoop, false, run_sort_hadoop},
      {"sort_sp", "Sort", Framework::kSpark, false, run_sort_spark},
      {"wc_hp", "WordCount", Framework::kHadoop, false, run_wordcount_hadoop},
      {"wc_sp", "WordCount", Framework::kSpark, false, run_wordcount_spark},
      {"grep_hp", "Grep", Framework::kHadoop, false, run_grep_hadoop},
      {"grep_sp", "Grep", Framework::kSpark, false, run_grep_spark},
      {"bayes_hp", "NaiveBayes", Framework::kHadoop, false, run_bayes_hadoop},
      {"bayes_sp", "NaiveBayes", Framework::kSpark, false, run_bayes_spark},
      {"cc_hp", "ConnectedComponents", Framework::kHadoop, true,
       run_cc_hadoop},
      {"cc_sp", "ConnectedComponents", Framework::kSpark, true, run_cc_spark},
      {"rank_hp", "PageRank", Framework::kHadoop, true, run_rank_hadoop},
      {"rank_sp", "PageRank", Framework::kSpark, true, run_rank_spark},
  };
  return registry;
}

const WorkloadInfo& workload(std::string_view name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return w;
  }
  SIMPROF_EXPECTS(false, "unknown workload: " + std::string(name));
  static WorkloadInfo dummy;
  return dummy;
}

namespace detail {

TextScale text_scale(double scale) {
  SIMPROF_EXPECTS(scale > 0.0, "scale must be positive");
  auto words = static_cast<std::uint64_t>(8.0e6 * scale);
  if (words < 20'000) words = 20'000;
  // Vocabulary scales sub-linearly (Heaps' law-ish) and is kept large enough
  // that combiner hash tables outgrow the LLC at full scale.
  auto vocab = static_cast<std::uint32_t>(
      static_cast<double>(std::uint32_t{1} << 18) *
      (scale >= 1.0 ? 1.0 : (0.25 + 0.75 * scale)));
  if (vocab < 4'096) vocab = 4'096;
  return TextScale{words, vocab};
}

data::TextConfig corpus_config(const WorkloadParams& p,
                               std::uint32_t num_classes) {
  const auto ts = text_scale(p.scale);
  data::TextConfig cfg;
  cfg.num_words = ts.num_words;
  cfg.vocabulary = ts.vocabulary;
  cfg.zipf_skew = 1.0;
  cfg.mean_doc_words = 160;
  cfg.seed = p.seed;
  cfg.num_classes = num_classes;
  // Labeled corpora (NaiveBayes) halve the vocabulary: the model key space
  // is classes × words, and the full vocabulary would make the combiner
  // working set unrealistically exceed memory at this scale.
  if (num_classes > 0) cfg.vocabulary /= 2;
  return cfg;
}

}  // namespace detail
}  // namespace simprof::workloads
