#include "data/graph.h"

#include <algorithm>
#include <numeric>

#include "support/assert.h"

namespace simprof::data {

Graph Graph::from_edges(VertexId num_vertices, std::vector<Edge> edges,
                        bool symmetrize) {
  Graph g;
  auto& off = g.offsets_;
  auto& nbr = g.neighbors_;
  // Count each vertex's slots (reverse edges included), then scatter every
  // edge into its source's slots. After the scatter off[v] is the end of
  // v's slots, i.e. the start of v + 1's.
  off.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) {
    SIMPROF_EXPECTS(e.src < num_vertices && e.dst < num_vertices,
                    "edge endpoint out of range");
    ++off[e.src + 1];
    if (symmetrize && e.src != e.dst) ++off[e.dst + 1];
  }
  std::partial_sum(off.begin(), off.end(), off.begin());
  nbr.resize(off.back());
  for (const Edge& e : edges) {
    nbr[off[e.src]++] = e.dst;
    if (symmetrize && e.src != e.dst) nbr[off[e.dst]++] = e.src;
  }
  std::vector<Edge>().swap(edges);  // free the edge list before compaction

  // Sort and deduplicate each adjacency list, compacting the lists in
  // place toward the front (a list never moves past its own slots).
  std::uint64_t begin = 0, out = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const std::uint64_t end = off[v];
    VertexId* first = nbr.data() + begin;
    VertexId* last = nbr.data() + end;
    std::sort(first, last);
    last = std::unique(first, last);
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
