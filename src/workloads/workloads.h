// The evaluated benchmark suite (Table I): Sort, WordCount, Grep, NaiveBayes,
// Connected Components and PageRank, each on both MiniHadoop ("_hp") and
// MiniSpark ("_sp") — twelve configurations.
//
// Each workload is a function from (cluster, params) to a functional result;
// profiling is orthogonal (attach a ProfilingHook to the cluster before
// running). Data sizes scale linearly with params.scale so tests can run
// tiny instances of exactly the code the benches run at full size.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/cluster.h"

namespace simprof::data {
struct TextConfig;
}  // namespace simprof::data

namespace simprof::workloads {

enum class Framework { kSpark, kHadoop };

std::string_view to_string(Framework fw);

struct WorkloadParams {
  double scale = 1.0;            ///< linear data-volume scale factor
  std::uint64_t seed = 42;       ///< data-synthesis seed
  std::string graph_input = "Google";      ///< Table II catalog entry
  std::uint32_t graph_scale_override = 0;  ///< 2^x vertices; 0 = entry value
  std::uint32_t max_iterations = 20;       ///< graph-workload iteration cap
};

struct WorkloadResult {
  std::uint64_t records_out = 0;  ///< output record count
  std::uint64_t checksum = 0;     ///< workload-specific functional digest
  std::uint32_t iterations = 0;   ///< iterations executed (graph workloads)
};

using WorkloadFn = WorkloadResult (*)(exec::Cluster&, const WorkloadParams&);

struct WorkloadInfo {
  std::string name;       ///< e.g. "wc_sp"
  std::string benchmark;  ///< e.g. "WordCount"
  Framework framework = Framework::kSpark;
  bool graph_workload = false;
  WorkloadFn run = nullptr;
};

/// All twelve Table I configurations, Hadoop first then Spark, in the
/// paper's benchmark order (sort, wc, grep, bayes, cc, rank).
const std::vector<WorkloadInfo>& all_workloads();

/// Lookup by name ("wc_sp", "rank_hp", …); contract violation on unknown.
const WorkloadInfo& workload(std::string_view name);

// Individual entry points (exposed for focused tests).
WorkloadResult run_sort_spark(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_wordcount_spark(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_grep_spark(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_bayes_spark(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_sort_hadoop(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_wordcount_hadoop(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_grep_hadoop(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_bayes_hadoop(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_cc_spark(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_rank_spark(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_cc_hadoop(exec::Cluster&, const WorkloadParams&);
WorkloadResult run_rank_hadoop(exec::Cluster&, const WorkloadParams&);

// Shared synthesis helpers (used by tests to rebuild the same inputs).
namespace detail {
struct TextScale {
  std::uint64_t num_words;
  std::uint32_t vocabulary;
};
TextScale text_scale(double scale);

/// The text corpus every text workload of `p` reads; `num_classes` > 0
/// labels it for NaiveBayes (and halves the vocabulary).
data::TextConfig corpus_config(const WorkloadParams& p,
                               std::uint32_t num_classes = 0);

/// FNV-1a-style step of the workloads' functional checksums (one whole
/// value per step, not one byte).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}
}  // namespace detail

}  // namespace simprof::workloads
