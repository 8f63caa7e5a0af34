#include "data/graph.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"
#include "support/assert.h"

namespace simprof::data {

Graph Graph::from_edges(VertexId num_vertices, std::vector<Edge> edges,
                        bool symmetrize) {
  obs::ObsSpan span("data.csr_build", {{"edges", edges.size()},
                                       {"symmetrize", symmetrize}});
  Graph g;
  auto& off = g.offsets_;
  auto& nbr = g.neighbors_;
  // Count every vertex's arcs (reverse edges included) twice: as a source,
  // which sizes its adjacency slots, and as a target.
  const std::size_t n = num_vertices;
  off.assign(n + 1, 0);
  std::vector<std::uint64_t> by_target(n + 1, 0);
  for (const Edge& e : edges) {
    SIMPROF_EXPECTS(e.src < num_vertices && e.dst < num_vertices,
                    "edge endpoint out of range");
    ++off[e.src + 1];
    ++by_target[e.dst + 1];
    if (symmetrize && e.src != e.dst) {
      ++off[e.dst + 1];
      ++by_target[e.src + 1];
    }
  }
  std::partial_sum(off.begin(), off.end(), off.begin());
  std::partial_sum(by_target.begin(), by_target.end(), by_target.begin());
  // First scatter: group every arc's source by the arc's target. After it
  // by_target[t] is the end of t's group.
  std::vector<VertexId> sources(by_target.back());
  for (const Edge& e : edges) {
    sources[by_target[e.dst]++] = e.src;
    if (symmetrize && e.src != e.dst) sources[by_target[e.src]++] = e.dst;
  }
  std::vector<Edge>().swap(edges);  // free the edge list before the second
  // Second scatter: every arc into its source's slots, targets in ascending
  // order, so each adjacency list comes out sorted. After it off[v] is the
  // end of v's slots, i.e. the start of v + 1's.
  nbr.resize(off.back());
  std::uint64_t i = 0;
  for (VertexId t = 0; t < num_vertices; ++t) {
    for (; i < by_target[t]; ++i) nbr[off[sources[i]]++] = t;
  }
  std::vector<VertexId>().swap(sources);
  std::vector<std::uint64_t>().swap(by_target);

  // Deduplicate each (sorted) adjacency list, compacting the lists in place
  // toward the front (a list never moves past its own slots).
  std::uint64_t begin = 0, out = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const std::uint64_t end = off[v];
    VertexId* first = nbr.data() + begin;
    VertexId* last = std::unique(first, nbr.data() + end);
    off[v] = out;
    if (out != begin) std::copy(first, last, nbr.data() + out);
    out += static_cast<std::uint64_t>(last - first);
    begin = end;
  }
  off[num_vertices] = out;
  nbr.resize(out);
  return g;
}

std::span<const VertexId> Graph::neighbors(VertexId v) const {
  SIMPROF_EXPECTS(v < num_vertices(), "vertex out of range");
  return {neighbors_.data() + offsets_[v],
          static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
}

std::uint32_t Graph::out_degree(VertexId v) const {
  SIMPROF_EXPECTS(v < num_vertices(), "vertex out of range");
  return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), VertexId{0});
  }
  VertexId find(VertexId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }
  void unite(VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);  // keep the smaller id as root
    parent_[b] = a;
  }

 private:
  std::vector<VertexId> parent_;
};

}  // namespace

std::vector<VertexId> connected_components_ground_truth(const Graph& g) {
  UnionFind uf(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) uf.unite(v, u);
  }
  std::vector<VertexId> labels(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) labels[v] = uf.find(v);
  return labels;
}

}  // namespace simprof::data
