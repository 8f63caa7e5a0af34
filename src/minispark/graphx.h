// Mini-GraphX: the Spark graph library substrate for cc_sp and rank_sp.
//
// The paper attributes cc_sp's many phases and high-variance Phase 0 to
// GraphX operations — aggregateUsingIndex (a reduce), mapPartitionsWithIndex
// (sequential input conversion) — so this layer reproduces GraphX's Pregel
// execution shape: per-iteration aggregateMessages over edge partitions
// (sequential edge scans + random vertex-attribute gathers), message
// combination via aggregateUsingIndex (hash aggregation), and a joinVertices
// update stage. Message volume tracks the shrinking active frontier, giving
// the same phase time-varying performance the paper observes.
#pragma once

#include <cstdint>
#include <vector>

#include "data/graph.h"
#include "minispark/spark_context.h"

namespace simprof::spark {

struct GraphXStats {
  std::uint32_t iterations = 0;
  std::uint64_t total_messages = 0;
};

class GraphX {
 public:
  /// Partitions the graph's edges by source-vertex range across
  /// sc.default_parallelism() partitions and allocates the simulated CSR /
  /// vertex-attribute regions.
  GraphX(SparkContext& sc, const data::Graph& graph);

  /// Label-propagation connected components (GraphX ConnectedComponents):
  /// iterates until no label changes or `max_iterations`. Returns per-vertex
  /// component labels (smallest reachable vertex id upon convergence).
  std::vector<data::VertexId> connected_components(
      std::uint32_t max_iterations = 64);

  /// PageRank with fixed iteration count (GraphX staticPageRank).
  std::vector<double> pagerank(std::uint32_t iterations,
                               double damping = 0.85);

  const GraphXStats& stats() const { return stats_; }
  std::size_t num_edge_partitions() const { return part_lo_.size(); }

 private:
  /// Run the load stage (GraphLoader + mapPartitionsWithIndex) once.
  void load_graph();

  /// One aggregateMessages + aggregateUsingIndex stage. `gather` is invoked
  /// per (src, dst) edge with src active and may emit a message value;
  /// messages to the same target are merged with `merge`.
  template <typename T, typename GatherFn, typename MergeFn>
  std::vector<std::pair<data::VertexId, T>> aggregate_messages(
      const std::vector<std::uint8_t>& active, GatherFn gather, MergeFn merge);

  SparkContext& sc_;
  const data::Graph& graph_;
  bool loaded_ = false;
  GraphXStats stats_;

  // Edge partitioning by source-vertex range.
  std::vector<data::VertexId> part_lo_;
  std::vector<data::VertexId> part_hi_;
  std::vector<std::uint64_t> part_edges_;

  // Simulated regions.
  std::uint64_t vertex_region_ = 0;
  std::uint64_t vertex_region_bytes_ = 0;
  std::uint64_t edge_region_ = 0;
  std::uint64_t edge_region_bytes_ = 0;
  std::uint64_t message_region_ = 0;

  // Pre-interned GraphX method names.
  jvm::MethodId m_load_;
  jvm::MethodId m_map_partitions_;
  jvm::MethodId m_aggregate_messages_;
  jvm::MethodId m_aggregate_using_index_;
  jvm::MethodId m_join_vertices_;
  jvm::MethodId m_ship_vertices_;
  jvm::MethodId m_pregel_;
};

}  // namespace simprof::spark
