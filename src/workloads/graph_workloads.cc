// Graph-analytics workloads (Table I: Connected Components, PageRank) on
// both frameworks. Spark versions run on mini-GraphX (Pregel iterations);
// Hadoop versions chain one MapReduce job per iteration, the classic
// Pegasus-style formulation — which is why the paper sees far fewer phases
// on Hadoop (one map + one reduce operation repeated) than on GraphX.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "data/catalog.h"
#include "data/graph.h"
#include "minihadoop/hadoop.h"
#include "minispark/graphx.h"
#include "workloads/workloads.h"

namespace simprof::workloads {
namespace {

using data::Graph;
using data::VertexId;

std::shared_ptr<const Graph> load_graph(const WorkloadParams& p,
                                        bool symmetrize,
                                        std::uint32_t default_scale) {
  // Paper graphs have 2^20–2^24 vertices; scaled down 1/16–1/128 with the
  // rest of the environment. Tests override with smaller scales.
  const std::uint32_t scale =
      p.graph_scale_override != 0 ? p.graph_scale_override : default_scale;
  auto entry = data::catalog_entry(p.graph_input, scale);
  entry.kron.seed ^= p.seed * 0x9e37ULL;
  return data::kronecker_graph_shared(entry.kron, symmetrize);
}

std::uint64_t label_checksum(const std::vector<VertexId>& labels) {
  std::uint64_t h = detail::kFnvOffset;
  for (VertexId l : labels) h = detail::fnv_mix(h, l);
  return h;
}

}  // namespace

WorkloadResult run_cc_spark(exec::Cluster& cluster, const WorkloadParams& p) {
  const auto g_sp = load_graph(p, /*symmetrize=*/true, /*default_scale=*/17);
  const Graph& g = *g_sp;
  spark::SparkContext sc(cluster);
  spark::GraphX graphx(sc, g);
  auto labels = graphx.connected_components(p.max_iterations);

  WorkloadResult res;
  res.iterations = graphx.stats().iterations;
  res.records_out = labels.size();
  res.checksum = label_checksum(labels);
  cluster.finish();
  return res;
}

WorkloadResult run_rank_spark(exec::Cluster& cluster,
                              const WorkloadParams& p) {
  const auto g_sp = load_graph(p, /*symmetrize=*/false, /*default_scale=*/16);
  const Graph& g = *g_sp;
  spark::SparkContext sc(cluster);
  spark::GraphX graphx(sc, g);
  const std::uint32_t iters = std::min<std::uint32_t>(p.max_iterations, 10);
  auto ranks = graphx.pagerank(iters);

  WorkloadResult res;
  res.iterations = iters;
  res.records_out = ranks.size();
  double sum = 0.0;
  for (double r : ranks) sum += r;
  res.checksum = static_cast<std::uint64_t>(sum * 1000.0);
  cluster.finish();
  return res;
}

WorkloadResult run_cc_hadoop(exec::Cluster& cluster,
                             const WorkloadParams& p) {
  const auto g_sp = load_graph(p, /*symmetrize=*/true, /*default_scale=*/17);
  const Graph& g = *g_sp;
  const VertexId n = g.num_vertices();
  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = v;
  std::vector<std::uint8_t> active(n, 1);

  WorkloadResult res;
  const double bytes_per_vertex =
      static_cast<double>(g.footprint_bytes()) / static_cast<double>(n);

  for (std::uint32_t iter = 0; iter < p.max_iterations; ++iter) {
    // One MR job per iteration: mappers propagate labels along edges of
    // active vertices; reducers take the min label per vertex.
    std::vector<VertexId> frontier;
    for (VertexId v = 0; v < n; ++v) {
      if (active[v]) frontier.push_back(v);
    }
    if (frontier.empty()) break;

    hadoop::JobSpec<VertexId, VertexId, VertexId> spec;
    spec.job_name = "cc_iter" + std::to_string(iter);
    spec.mapper_name = "pegasus.ConCmptBlock$MapStage1.map";
    spec.reducer_name = "pegasus.ConCmptBlock$RedStage1.reduce";
    spec.map_fn = [&](const VertexId& v,
                      std::vector<std::pair<VertexId, VertexId>>& out) {
      const VertexId lv = label[v];
      out.emplace_back(v, lv);
      for (VertexId u : g.neighbors(v)) {
        if (lv < label[u]) out.emplace_back(u, lv);
      }
    };
    spec.combine_fn = [](const VertexId& a, const VertexId& b) {
      return std::min(a, b);
    };
    spec.reduce_fn = [](const VertexId&, const std::vector<VertexId>& vs) {
      return *std::min_element(vs.begin(), vs.end());
    };
    spec.map_instrs_per_record = 150;
    spec.map_instrs_per_emit = 22;

    hadoop::MapReduceJob<VertexId, VertexId, VertexId> job(
        cluster, hadoop::HadoopConfig{}, spec);
    auto out = job.run(hadoop::make_splits(
        frontier, 3 * cluster.num_cores(), bytes_per_vertex));

    std::uint64_t changed = 0;
    std::fill(active.begin(), active.end(), 0);
    for (const auto& [v, min_label] : out) {
      if (min_label < label[v]) {
        label[v] = min_label;
        active[v] = 1;
        ++changed;
      }
    }
    ++res.iterations;
    if (changed == 0) break;
  }
  res.records_out = n;
  res.checksum = label_checksum(label);
  cluster.finish();
  return res;
}

WorkloadResult run_rank_hadoop(exec::Cluster& cluster,
                               const WorkloadParams& p) {
  const auto g_sp = load_graph(p, /*symmetrize=*/false, /*default_scale=*/16);
  const Graph& g = *g_sp;
  const VertexId n = g.num_vertices();
  std::vector<double> rank(n, 1.0);
  constexpr double kDamping = 0.85;
  const std::uint32_t iters = std::min<std::uint32_t>(p.max_iterations, 8);
  const double bytes_per_vertex =
      static_cast<double>(g.footprint_bytes()) / static_cast<double>(n);

  std::vector<VertexId> vertices(n);
  for (VertexId v = 0; v < n; ++v) vertices[v] = v;

  WorkloadResult res;
  for (std::uint32_t iter = 0; iter < iters; ++iter) {
    hadoop::JobSpec<VertexId, VertexId, double> spec;
    spec.job_name = "rank_iter" + std::to_string(iter);
    spec.mapper_name = "pegasus.PagerankNaive$MapStage1.map";
    spec.reducer_name = "pegasus.PagerankNaive$RedStage1.reduce";
    spec.map_fn = [&](const VertexId& v,
                      std::vector<std::pair<VertexId, double>>& out) {
      const auto deg = g.out_degree(v);
      if (deg == 0) return;
      const double contrib = rank[v] / static_cast<double>(deg);
      for (VertexId u : g.neighbors(v)) out.emplace_back(u, contrib);
    };
    spec.combine_fn = [](const double& a, const double& b) { return a + b; };
    spec.reduce_fn = [](const VertexId&, const std::vector<double>& vs) {
      double s = 0.0;
      for (double v : vs) s += v;
      return s;
    };
    spec.map_instrs_per_record = 150;
    spec.map_instrs_per_emit = 20;
    spec.pair_bytes = 16;

    hadoop::MapReduceJob<VertexId, VertexId, double> job(
        cluster, hadoop::HadoopConfig{}, spec);
    auto out = job.run(hadoop::make_splits(vertices, 3 * cluster.num_cores(),
                                           bytes_per_vertex));
    std::vector<double> next(n, 1.0 - kDamping);
    for (const auto& [v, sum] : out) next[v] += kDamping * sum;
    rank = std::move(next);
    ++res.iterations;
  }
  res.records_out = n;
  double sum = 0.0;
  for (double r : rank) sum += r;
  res.checksum = static_cast<std::uint64_t>(sum * 1000.0);
  cluster.finish();
  return res;
}

}  // namespace simprof::workloads
