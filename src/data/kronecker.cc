#include "data/kronecker.h"

#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "support/assert.h"
#include "support/single_flight.h"

namespace simprof::data {

namespace {
support::SingleFlight<std::pair<KroneckerConfig, bool>, const Graph> graphs(
    "data.graph");
}  // namespace

Graph kronecker_graph(const KroneckerConfig& cfg, bool symmetrize) {
  SIMPROF_EXPECTS(cfg.scale >= 1 && cfg.scale <= 30, "scale out of range");
  SIMPROF_EXPECTS(cfg.a > 0 && cfg.b >= 0 && cfg.c >= 0 && cfg.d >= 0,
                  "initiator probabilities must be non-negative");
  SIMPROF_EXPECTS(cfg.noise >= 0.0 && cfg.noise <= 0.5, "noise in [0, 0.5]");

  const double sum = cfg.a + cfg.b + cfg.c + cfg.d;
  const double pa = cfg.a / sum, pb = cfg.b / sum, pc = cfg.c / sum;
  // Blend the initiator toward uniform by `noise` (the same at every level).
  const double qa = pa * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
  const double qb = pb * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
  const double qc = pc * (1.0 - 2.0 * cfg.noise) + 0.25 * 2.0 * cfg.noise;
  // Cumulative quadrant thresholds, non-decreasing since qa, qb, qc ≥ 0.
  const double t1 = qa, t2 = qa + qb, t3 = qa + qb + qc;

  const VertexId n = VertexId{1} << cfg.scale;
  const auto num_edges = static_cast<std::uint64_t>(
      cfg.edge_factor * static_cast<double>(n));
  obs::ObsSpan span("data.graph_synth",
                    {{"edges", num_edges}, {"scale", cfg.scale}});

  Rng rng(cfg.seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);

  for (std::uint64_t e = 0; e < num_edges; ++e) {
    VertexId src = 0, dst = 0;
    for (std::uint32_t level = 0; level < cfg.scale; ++level) {
      const double u = rng.next_double();
      const VertexId quad = static_cast<VertexId>(u >= t1) +
                            static_cast<VertexId>(u >= t2) +
                            static_cast<VertexId>(u >= t3);
      src = (src << 1) | (quad >> 1);
      dst = (dst << 1) | (quad & 1);
    }
    edges.push_back(Edge{src, dst});
  }
  return Graph::from_edges(n, std::move(edges), symmetrize);
}

std::shared_ptr<const Graph> kronecker_graph_shared(const KroneckerConfig& cfg,
                                                    bool symmetrize) {
  return graphs.get({cfg, symmetrize},
                    [&] { return kronecker_graph(cfg, symmetrize); });
}

}  // namespace simprof::data
