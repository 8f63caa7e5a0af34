// Functional tests for mini-GraphX: connected components against union-find
// ground truth, PageRank invariants, frontier shrinkage and stage structure.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "data/graph.h"
#include "data/catalog.h"
#include "data/kronecker.h"
#include "minispark/graphx.h"
#include "test_util.h"

namespace simprof::spark {
namespace {

using data::Edge;
using data::Graph;
using data::VertexId;

TEST(GraphX, ConnectedComponentsMatchesUnionFindOnSmallGraph) {
  std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}, {4, 3}};
  const Graph g = Graph::from_edges(9, edges, /*symmetrize=*/true);

  exec::Cluster cluster(testing::tiny_cluster_config());
  SparkContext sc(cluster);
  GraphX graphx(sc, g);
  const auto labels = graphx.connected_components();
  const auto truth = data::connected_components_ground_truth(g);
  EXPECT_EQ(labels, truth);
}

TEST(GraphX, ConnectedComponentsOnKroneckerMatchesGroundTruth) {
  data::KroneckerConfig cfg;
  cfg.scale = 9;
  cfg.edge_factor = 4.0;
  const Graph g = data::kronecker_graph(cfg, /*symmetrize=*/true);

  exec::Cluster cluster(testing::tiny_cluster_config());
  SparkContext sc(cluster);
  GraphX graphx(sc, g);
  EXPECT_EQ(graphx.connected_components(),
            data::connected_components_ground_truth(g));
  EXPECT_GT(graphx.stats().iterations, 1u);
}

TEST(GraphX, IterationCapRespected) {
  // A path graph needs ~n iterations to converge; cap at 2.
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 20; ++v) edges.push_back({v, v + 1});
  const Graph g = Graph::from_edges(20, edges, true);
  exec::Cluster cluster(testing::tiny_cluster_config());
  SparkContext sc(cluster);
  GraphX graphx(sc, g);
  graphx.connected_components(/*max_iterations=*/2);
  EXPECT_EQ(graphx.stats().iterations, 2u);
}

TEST(GraphX, PagerankMassAndHubOrdering) {
  // Star graph: everyone points at vertex 0.
  std::vector<Edge> edges;
  for (VertexId v = 1; v < 30; ++v) edges.push_back({v, 0});
  const Graph g = Graph::from_edges(30, edges, false);

  exec::Cluster cluster(testing::tiny_cluster_config());
  SparkContext sc(cluster);
  GraphX graphx(sc, g);
  const auto ranks = graphx.pagerank(15);
  ASSERT_EQ(ranks.size(), 30u);
  for (VertexId v = 1; v < 30; ++v) {
    EXPECT_GT(ranks[0], ranks[v] * 5);  // the hub dominates
    EXPECT_NEAR(ranks[v], 0.15, 1e-6);  // leaves get only the base rank
  }
  // With damping d, total mass converges near n·(1−d) + d·(incoming mass);
  // for the star: leaves hold 29·0.15, hub holds 0.15 + 0.85·(29·0.15)…
  const double total = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  EXPECT_GT(total, 29 * 0.15);
  EXPECT_LT(total, 30.0);
}

TEST(GraphX, PagerankUniformOnRegularRing) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 24; ++v) edges.push_back({v, (v + 1) % 24});
  const Graph g = Graph::from_edges(24, edges, false);
  exec::Cluster cluster(testing::tiny_cluster_config());
  SparkContext sc(cluster);
  GraphX graphx(sc, g);
  const auto ranks = graphx.pagerank(20);
  for (double r : ranks) EXPECT_NEAR(r, 1.0, 1e-6);
}

TEST(GraphX, MessageVolumeShrinksAsLabelsConverge) {
  data::KroneckerConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 6.0;
  const Graph g = data::kronecker_graph(cfg, true);
  exec::Cluster cluster(testing::tiny_cluster_config());
  SparkContext sc(cluster);
  GraphX graphx(sc, g);
  graphx.connected_components();
  // Total messages must be far below iterations × vertices (frontier decay —
  // the source of the paper's input-sensitive aggregateUsingIndex phase).
  EXPECT_LT(graphx.stats().total_messages,
            static_cast<std::uint64_t>(graphx.stats().iterations) *
                g.num_vertices());
}

TEST(GraphX, RunsStagesPerIteration) {
  std::vector<Edge> edges{{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges, true);
  exec::Cluster cluster(testing::tiny_cluster_config());
  SparkContext sc(cluster);
  GraphX graphx(sc, g);
  graphx.connected_components();
  // load + per-iteration (aggregate + join) stages.
  EXPECT_GE(sc.stages_run(), 1 + 2 * (graphx.stats().iterations - 1));
}

TEST(GraphX, RankBitsAndLabelsPinnedAtScale10) {
  // Every rank bit and label on a scale-10 Kronecker graph over six edge
  // partitions: the message lists' order, the per-vertex folds and the
  // partition-order merge of partial sums all feed these values.
  auto run = [](bool symmetrize, auto algorithm) {
    const Graph g = data::kronecker_graph(
        data::catalog_entry("Google", 10).kron, symmetrize);
    exec::Cluster cluster(testing::tiny_cluster_config());
    SparkContext sc(cluster);
    GraphX graphx(sc, g);
    std::uint64_t h = testing::kFnv1aOffset;
    for (const auto v : algorithm(graphx)) {
      h = testing::fnv1a_mix(h, std::bit_cast<std::uint64_t>(
                                    static_cast<double>(v)));
    }
    return h;
  };
  EXPECT_EQ(run(false, [](GraphX& gx) { return gx.pagerank(10); }),
            0x8e312a330bfa58a5ULL);
  EXPECT_EQ(run(true, [](GraphX& gx) { return gx.connected_components(); }),
            0xb8e04a86c50587efULL);
}

TEST(GraphX, EmptyGraphRejected) {
  const Graph g;
  exec::Cluster cluster(testing::tiny_cluster_config());
  SparkContext sc(cluster);
  EXPECT_THROW(GraphX(sc, g), ContractViolation);
}

}  // namespace
}  // namespace simprof::spark
