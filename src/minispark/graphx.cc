#include "minispark/graphx.h"

#include <algorithm>

#include "jvm/call_stack.h"
#include "minispark/combiner.h"
#include "support/assert.h"

namespace simprof::spark {

using data::VertexId;

GraphX::GraphX(SparkContext& sc, const data::Graph& graph)
    : sc_(sc),
      graph_(graph),
      m_load_(sc.cluster().methods().intern(
          "org.apache.spark.graphx.GraphLoader.edgeListFile",
          jvm::OpKind::kIo)),
      m_map_partitions_(sc.cluster().methods().intern(
          "org.apache.spark.rdd.RDD.mapPartitionsWithIndex",
          jvm::OpKind::kMap)),
      m_aggregate_messages_(sc.cluster().methods().intern(
          "org.apache.spark.graphx.impl.EdgePartition.aggregateMessagesEdgeScan",
          jvm::OpKind::kMap)),
      m_aggregate_using_index_(sc.cluster().methods().intern(
          "org.apache.spark.graphx.impl.ShippableVertexPartition.aggregateUsingIndex",
          jvm::OpKind::kReduce)),
      m_join_vertices_(sc.cluster().methods().intern(
          "org.apache.spark.graphx.impl.VertexRDDImpl.innerJoin",
          jvm::OpKind::kMap)),
      m_ship_vertices_(sc.cluster().methods().intern(
          "org.apache.spark.graphx.impl.ReplicatedVertexView.shipVertexAttributes",
          jvm::OpKind::kShuffle)),
      m_pregel_(sc.cluster().methods().intern(
          "org.apache.spark.graphx.Pregel.apply", jvm::OpKind::kFramework)) {
  const VertexId n = graph_.num_vertices();
  SIMPROF_EXPECTS(n > 0, "empty graph");
  const std::size_t parts = sc.default_parallelism();
  const VertexId per = static_cast<VertexId>((n + parts - 1) / parts);
  for (VertexId lo = 0; lo < n; lo += per) {
    const VertexId hi = std::min<VertexId>(n, lo + per);
    std::uint64_t edges = graph_.offsets()[hi] - graph_.offsets()[lo];
    part_lo_.push_back(lo);
    part_hi_.push_back(hi);
    part_edges_.push_back(edges);
  }
  vertex_region_bytes_ = static_cast<std::uint64_t>(n) * 16;  // id + attr
  edge_region_bytes_ = graph_.footprint_bytes();
  auto& space = sc.cluster().address_space();
  vertex_region_ = space.allocate(vertex_region_bytes_);
  edge_region_ = space.allocate(edge_region_bytes_);
  message_region_ = space.allocate(vertex_region_bytes_);
}

void GraphX::load_graph() {
  if (loaded_) return;
  const double bytes_per_edge =
      static_cast<double>(edge_region_bytes_) /
      static_cast<double>(std::max<std::uint64_t>(graph_.num_edges(), 1));
  // Partition p's slice of the edge region: [offset[p], offset[p + 1]).
  std::vector<std::uint64_t> offset{0};
  for (const std::uint64_t edges : part_edges_) {
    offset.push_back(offset.back() + static_cast<std::uint64_t>(
                                         bytes_per_edge *
                                         static_cast<double>(edges)));
  }
  sc_.run_stage(
      "graph_load", /*shuffle_map=*/true, part_lo_.size(),
      [&](std::size_t p, exec::ExecutorContext& ctx) {
        jvm::MethodScope load(ctx.stack(), m_load_);
        jvm::MethodScope mp(ctx.stack(), m_map_partitions_);
        // Parse the text edge list (sequential) and build the partition's
        // CSR index (a second pass + per-edge insertion cost). Both are
        // sequential over same-sized regions regardless of topology — an
        // input-INsensitive phase by construction, like the paper's
        // mapPartitionsWithIndex conversion phase.
        const std::uint64_t bytes = offset[p + 1] - offset[p];
        exec::scan_region(ctx, edge_region_ + offset[p], bytes,
                          sc_.costs().scan_instrs_per_byte * 2.2);
        exec::scan_region(ctx, edge_region_ + offset[p], bytes, 1.8,
                          /*write=*/true);
      });
  loaded_ = true;
}

template <typename T, typename GatherFn, typename MergeFn>
std::vector<std::pair<VertexId, T>> GraphX::aggregate_messages(
    const std::vector<std::uint8_t>& active, GatherFn gather, MergeFn merge) {
  const double bytes_per_edge =
      static_cast<double>(edge_region_bytes_) /
      static_cast<double>(std::max<std::uint64_t>(graph_.num_edges(), 1));

  std::vector<std::vector<std::pair<VertexId, T>>> partials(part_lo_.size());
  sc_.run_stage(
      "aggregate_messages", /*shuffle_map=*/true, part_lo_.size(),
      [&](std::size_t p, exec::ExecutorContext& ctx) {
        jvm::MethodScope pregel(ctx.stack(), m_pregel_);
        FlatCombiner<VertexId, T> local;
        std::uint64_t scanned_edges = 0;
        std::uint64_t gathers = 0;
        {
          // Ship updated vertex attributes to this edge partition's local
          // mirror (ReplicatedVertexView): stream the active slice.
          jvm::MethodScope ship(ctx.stack(), m_ship_vertices_);
          std::uint64_t active_count = 0;
          for (VertexId v = part_lo_[p]; v < part_hi_[p]; ++v) {
            active_count += active[v] ? 1 : 0;
          }
          exec::write_stream(ctx, message_region_, active_count * 64,
                             /*compressed=*/true, sc_.costs());
        }
        {
          jvm::MethodScope agg(ctx.stack(), m_aggregate_messages_);
          for (VertexId v = part_lo_[p]; v < part_hi_[p]; ++v) {
            if (!active[v]) continue;
            const auto nbrs = graph_.neighbors(v);
            scanned_edges += nbrs.size();
            for (VertexId u : nbrs) {
              T msg;
              if (!gather(v, u, msg)) continue;
              ++gathers;
              local.add(u, msg, merge);
            }
          }
          // Edge scan: sequential over the touched slice of the CSR.
          exec::scan_region(
              ctx, edge_region_,
              static_cast<std::uint64_t>(
                  bytes_per_edge * static_cast<double>(scanned_edges)),
              sc_.costs().scan_instrs_per_byte * 1.6);
          // Vertex-attribute gathers: random over the vertex region —
          // destination ids are scattered, this is the expensive part.
          if (gathers > 0) {
            // ~90 virtual instructions per message: JVM boxing + closure
            // dispatch dominates GraphX's send path.
            auto gather_stream = hw::AccessStream::random(
                vertex_region_, vertex_region_bytes_, gathers, ctx.rng());
            ctx.execute(gathers * 90, gather_stream);
          }
        }
        {
          jvm::MethodScope idx(ctx.stack(), m_aggregate_using_index_);
          exec::hash_aggregate(ctx, message_region_, local.size() * 24,
                               gathers, 0.30, sc_.costs());
          ctx.compute(gathers * 30);
        }
        partials[p] = local.take();
      });

  // Driver-side merge of the per-partition message maps (functional only;
  // the simulated cost of combining lives in aggregateUsingIndex above).
  // First-seen order is enough: a list holds each vertex once, a vertex's
  // partial messages fold in partition order, and CC's min and PageRank's
  // single add per vertex read no list order (DESIGN.md §6l).
  FlatCombiner<VertexId, T> merged;
  for (const auto& part : partials) {
    for (const auto& [v, msg] : part) merged.add(v, msg, merge);
  }
  std::vector<std::pair<VertexId, T>> out = merged.take();
  stats_.total_messages += out.size();
  return out;
}

std::vector<VertexId> GraphX::connected_components(
    std::uint32_t max_iterations) {
  load_graph();
  const VertexId n = graph_.num_vertices();
  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = v;
  std::vector<std::uint8_t> active(n, 1);

  stats_.iterations = 0;
  for (std::uint32_t iter = 0; iter < max_iterations; ++iter) {
    auto messages = aggregate_messages<VertexId>(
        active,
        [&](VertexId src, VertexId dst, VertexId& msg) {
          if (label[src] >= label[dst]) return false;
          msg = label[src];
          return true;
        },
        [](VertexId a, VertexId b) { return std::min(a, b); });
    ++stats_.iterations;
    if (messages.empty()) break;

    // joinVertices update stage: apply min(label, message) per partition.
    std::vector<std::uint8_t> next_active(n, 0);
    std::uint64_t changed = 0;
    {
      const std::size_t parts = part_lo_.size();
      std::vector<std::vector<std::pair<VertexId, VertexId>>> routed(parts);
      const VertexId per = part_hi_[0] - part_lo_[0];
      for (const auto& [v, msg] : messages) {
        routed[std::min<std::size_t>(v / std::max<VertexId>(per, 1),
                                     parts - 1)]
            .emplace_back(v, msg);
      }
      sc_.run_stage(
          "join_vertices", /*shuffle_map=*/false, parts,
          [&](std::size_t p, exec::ExecutorContext& ctx) {
            jvm::MethodScope join(ctx.stack(), m_join_vertices_);
            for (const auto& [v, msg] : routed[p]) {
              if (msg < label[v]) {
                label[v] = msg;
                next_active[v] = 1;
                ++changed;
              }
            }
            exec::scan_region(
                ctx, vertex_region_ + part_lo_[p] * 16,
                static_cast<std::uint64_t>(part_hi_[p] - part_lo_[p]) * 16,
                2.0, /*write=*/true);
            // Applying the messages is a scattered update pattern over the
            // vertex attributes (join by index).
            if (!routed[p].empty()) {
              auto updates = hw::AccessStream::random(
                  vertex_region_, vertex_region_bytes_, routed[p].size() * 2,
                  ctx.rng(), /*write=*/true);
              ctx.execute(routed[p].size() * 70, updates);
            }
          });
    }
    if (changed == 0) break;
    active = std::move(next_active);
  }
  return label;
}

std::vector<double> GraphX::pagerank(std::uint32_t iterations,
                                     double damping) {
  load_graph();
  const VertexId n = graph_.num_vertices();
  std::vector<double> rank(n, 1.0);
  std::vector<std::uint8_t> all_active(n, 1);

  for (std::uint32_t iter = 0; iter < iterations; ++iter) {
    std::vector<double> contrib(n, 0.0);
    for (VertexId v = 0; v < n; ++v) {
      const auto deg = graph_.out_degree(v);
      contrib[v] = deg > 0 ? rank[v] / static_cast<double>(deg) : 0.0;
    }
    auto messages = aggregate_messages<double>(
        all_active,
        [&](VertexId src, VertexId /*dst*/, double& msg) {
          msg = contrib[src];
          return msg != 0.0;
        },
        [](double a, double b) { return a + b; });
    ++stats_.iterations;

    std::vector<double> next(n, 1.0 - damping);
    sc_.run_stage(
        "rank_update", /*shuffle_map=*/false, part_lo_.size(),
        [&](std::size_t p, exec::ExecutorContext& ctx) {
          jvm::MethodScope join(ctx.stack(), m_join_vertices_);
          const auto vertices =
              static_cast<std::uint64_t>(part_hi_[p] - part_lo_[p]);
          exec::scan_region(ctx, vertex_region_ + part_lo_[p] * 16,
                            vertices * 16, 2.0, /*write=*/true);
          auto updates = hw::AccessStream::random(
              vertex_region_, vertex_region_bytes_, vertices / 2, ctx.rng(),
              /*write=*/true);
          ctx.execute(vertices * 35, updates);
        });
    for (const auto& [v, sum] : messages) next[v] += damping * sum;
    rank = std::move(next);
  }
  return rank;
}

}  // namespace simprof::spark
