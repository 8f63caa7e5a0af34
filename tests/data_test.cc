// Unit tests for the data synthesizers: Zipf text corpora, CSR graphs,
// Kronecker generation and the Table II catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "data/catalog.h"
#include "data/graph.h"
#include "data/kronecker.h"
#include "data/text.h"
#include "obs/metrics.h"
#include "support/assert.h"
#include "support/rng.h"
#include "test_util.h"

namespace simprof::data {
namespace {

TextConfig tiny_text() {
  TextConfig cfg;
  cfg.num_words = 20'000;
  cfg.vocabulary = 5'000;
  cfg.mean_doc_words = 50;
  cfg.seed = 9;
  return cfg;
}

// Byte identity of corpus synthesis: an FNV-1a digest over words, document
// offsets, labels and the modeled byte size, at three seeds with and without
// class labels. The digests were recorded before synthesis took each
// document's draws up front, so any change to the draw order, the Zipf
// inversion or the class-band shift shows here.
TEST(TextCorpus, DigestsArePinnedAcrossSeedsAndClasses) {
  struct Pin {
    std::uint64_t seed;
    std::uint32_t classes;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {1, 0, 0xae2dea73ee0b4eeaULL}, {7, 0, 0x12d80ccdf20b8477ULL},
      {42, 0, 0x0047118b87aabe6aULL}, {1, 4, 0x73b23acb49450a89ULL},
      {7, 4, 0xc9be5488f0a17c51ULL},  {42, 4, 0xd0aad90db58297baULL},
  };
  for (const Pin& pin : pins) {
    TextConfig cfg;
    cfg.num_words = 50'000;
    cfg.vocabulary = 1 << 14;
    cfg.zipf_skew = 1.0;
    cfg.mean_doc_words = 160;
    cfg.seed = pin.seed;
    cfg.num_classes = pin.classes;
    const TextCorpus c = TextCorpus::synthesize(cfg);
    std::uint64_t h = testing::kFnv1aOffset;
    for (const WordId w : c.words()) h = testing::fnv1a_mix(h, w);
    for (const std::uint64_t o : c.doc_offsets()) h = testing::fnv1a_mix(h, o);
    for (std::size_t d = 0; d < c.num_docs(); ++d) {
      h = testing::fnv1a_mix(h, c.label(d));
    }
    h = testing::fnv1a_mix(h, c.total_bytes());
    EXPECT_EQ(h, pin.digest) << "seed " << pin.seed << " classes "
                             << pin.classes << std::hex << " got 0x" << h;
  }
}

TEST(TextCorpus, ExactWordCountAndDocPartition) {
  const TextCorpus c = TextCorpus::synthesize(tiny_text());
  EXPECT_EQ(c.words().size(), 20'000u);
  std::uint64_t sum = 0;
  for (std::size_t d = 0; d < c.num_docs(); ++d) sum += c.doc(d).size();
  EXPECT_EQ(sum, 20'000u);
  EXPECT_GT(c.num_docs(), 100u);
}

TEST(TextCorpus, DeterministicPerSeed) {
  const TextCorpus a = TextCorpus::synthesize(tiny_text());
  const TextCorpus b = TextCorpus::synthesize(tiny_text());
  ASSERT_EQ(a.words().size(), b.words().size());
  for (std::size_t i = 0; i < a.words().size(); ++i) {
    ASSERT_EQ(a.words()[i], b.words()[i]) << "at " << i;
  }
  auto cfg = tiny_text();
  cfg.seed = 10;
  const TextCorpus c = TextCorpus::synthesize(cfg);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.words().size(); ++i) {
    diff += (a.words()[i] != c.words()[i]) ? 1 : 0;
  }
  EXPECT_GT(diff, 1000u);
}

TEST(TextCorpus, ZipfSkewMakesHotWords) {
  const TextCorpus c = TextCorpus::synthesize(tiny_text());
  std::map<WordId, std::size_t> counts;
  for (WordId w : c.words()) ++counts[w];
  // Word 0 (hottest rank) must appear far more often than vocabulary/2.
  EXPECT_GT(counts[0], counts[2500] * 10 + 10);
}

TEST(TextCorpus, LabelsOnlyWhenRequested) {
  const TextCorpus plain = TextCorpus::synthesize(tiny_text());
  EXPECT_EQ(plain.label(0), 0u);

  auto cfg = tiny_text();
  cfg.num_classes = 3;
  const TextCorpus labeled = TextCorpus::synthesize(cfg);
  std::set<std::uint32_t> seen;
  for (std::size_t d = 0; d < labeled.num_docs(); ++d) {
    seen.insert(labeled.label(d));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(TextCorpus, MoreClassesThanVocabularyViolatesContract) {
  // Each class owns a band of vocabulary / num_classes words; with more
  // classes than words that band is empty and `w % band` would divide by 0.
  auto cfg = tiny_text();
  cfg.vocabulary = 4;
  cfg.num_classes = 5;
  EXPECT_THROW(TextCorpus::synthesize(cfg), ContractViolation);
  cfg.num_classes = 4;  // one word per class band is still well defined
  EXPECT_EQ(TextCorpus::synthesize(cfg).words().size(), cfg.num_words);
}

std::uint64_t counter_value(const char* name) {
  return obs::metrics().counter(name).value();
}

TEST(TextCorpusShared, AnUnheldCorpusIsFreedByTheNextBuild) {
  auto a = tiny_text();
  a.seed = 901;
  auto b = tiny_text();
  b.seed = 902;
  const std::weak_ptr<const TextCorpus> unheld =
      TextCorpus::synthesize_shared(a);
  EXPECT_FALSE(unheld.expired()) << "the latest corpus stays resident";
  const auto held = TextCorpus::synthesize_shared(b);
  EXPECT_TRUE(unheld.expired())
      << "an older corpus nobody holds must not stay cached";
  EXPECT_EQ(held->config().seed, 902u);
}

TEST(TextCorpusShared, OneConfigRequestedTwiceInARowSynthesizesOnce) {
  auto cfg = tiny_text();
  cfg.seed = 903;
  const std::uint64_t synth0 = counter_value("data.corpus_synth");
  const std::uint64_t shared0 = counter_value("data.corpus_shared");
  std::weak_ptr<const TextCorpus> first = TextCorpus::synthesize_shared(cfg);
  const auto second = TextCorpus::synthesize_shared(cfg);
  EXPECT_EQ(counter_value("data.corpus_synth") - synth0, 1u);
  EXPECT_EQ(counter_value("data.corpus_shared") - shared0, 1u);
  EXPECT_EQ(first.lock(), second);
}

TEST(TextCorpusShared, AContractViolationThrowsEveryTimeAndBlocksNothing) {
  auto bad = tiny_text();
  bad.vocabulary = 4;
  bad.num_classes = 5;
  for (int i = 0; i < 2; ++i) {
    EXPECT_THROW(TextCorpus::synthesize_shared(bad), ContractViolation) << i;
  }
  auto good = tiny_text();
  good.seed = 904;
  EXPECT_EQ(TextCorpus::synthesize_shared(good)->words().size(),
            good.num_words);
}

TEST(TextCorpus, WordBytesDeterministicAndBounded) {
  for (WordId w : {0u, 1u, 17u, 100'000u}) {
    const auto b = TextCorpus::word_bytes(w);
    EXPECT_EQ(b, TextCorpus::word_bytes(w));
    EXPECT_GE(b, 4u);
    EXPECT_LE(b, 13u);
  }
}

TEST(TextCorpus, TotalBytesIsSumOfWordBytes) {
  const TextCorpus c = TextCorpus::synthesize(tiny_text());
  std::uint64_t sum = 0;
  for (WordId w : c.words()) sum += TextCorpus::word_bytes(w);
  EXPECT_EQ(c.total_bytes(), sum);
}

TEST(Graph, CsrFromEdgesBasics) {
  std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges, /*symmetrize=*/false);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(1)[0], 2u);
}

TEST(Graph, DuplicateEdgesCollapse) {
  std::vector<Edge> edges{{0, 1}, {0, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges, false);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, SymmetrizeAddsReverseEdges) {
  std::vector<Edge> edges{{0, 1}};
  const Graph g = Graph::from_edges(2, edges, /*symmetrize=*/true);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

TEST(Graph, SelfLoopNotDuplicatedBySymmetrize) {
  std::vector<Edge> edges{{1, 1}};
  const Graph g = Graph::from_edges(2, edges, true);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, OutOfRangeEndpointThrows) {
  std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW(Graph::from_edges(2, edges, false), ContractViolation);
}

// The CSR a global sort + unique of all (src, dst) pairs produces.
std::pair<std::vector<std::uint64_t>, std::vector<VertexId>> reference_csr(
    VertexId n, std::vector<Edge> edges, bool symmetrize) {
  if (symmetrize) {
    const std::size_t m = edges.size();
    for (std::size_t i = 0; i < m; ++i) {
      if (edges[i].src != edges[i].dst) {
        edges.push_back(Edge{edges[i].dst, edges[i].src});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> neighbors;
  for (const Edge& e : edges) {
    ++offsets[e.src + 1];
    neighbors.push_back(e.dst);
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  return {offsets, neighbors};
}

TEST(Graph, FromEdgesMatchesSortUniqueReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // Few vertices relative to edges forces duplicates and self-loops;
    // many vertices leaves some isolated, including the first and last.
    const auto n = static_cast<VertexId>(1 + rng.next_below(trial % 2 ? 8 : 300));
    const std::size_t m = rng.next_below(4 * n + 10);
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = static_cast<VertexId>(rng.next_below(n));
      const auto dst = rng.next_bool(0.1) ? src
                                          : static_cast<VertexId>(rng.next_below(n));
      edges.push_back(Edge{src, dst});
      if (rng.next_bool(0.2)) edges.push_back(edges.back());
    }
    for (const bool symmetrize : {false, true}) {
      const Graph g = Graph::from_edges(n, edges, symmetrize);
      const auto [offsets, neighbors] = reference_csr(n, edges, symmetrize);
      ASSERT_EQ(g.num_vertices(), n);
      ASSERT_TRUE(std::ranges::equal(g.offsets(), offsets))
          << "trial " << trial << " symmetrize " << symmetrize;
      ASSERT_TRUE(std::ranges::equal(g.edges_flat(), neighbors))
          << "trial " << trial << " symmetrize " << symmetrize;
    }
  }
  const Graph empty = Graph::from_edges(5, {}, true);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_EQ(empty.offsets().size(), 6u);
  // Either endpoint out of range throws, with or without the reverse edges.
  for (const bool symmetrize : {false, true}) {
    EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {3, 0}}, symmetrize),
                 ContractViolation);
    EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 7}}, symmetrize),
                 ContractViolation);
  }
}

TEST(Graph, UnionFindGroundTruth) {
  // Two components: {0,1,2} and {3,4}; vertex 5 isolated.
  std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}};
  const Graph g = Graph::from_edges(6, edges, true);
  const auto labels = connected_components_ground_truth(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[5], 5u);
  EXPECT_EQ(labels[0], 0u);  // smallest-id labeling
}

TEST(Kronecker, VertexCountMatchesScale) {
  KroneckerConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8.0;
  const Graph g = kronecker_graph(cfg, false);
  EXPECT_EQ(g.num_vertices(), 256u);
  // Duplicates collapse, so realized edges are below the nominal count but
  // within a sane band.
  EXPECT_GT(g.num_edges(), 500u);
  EXPECT_LE(g.num_edges(), 2048u);
}

TEST(Kronecker, DeterministicPerSeed) {
  KroneckerConfig cfg;
  cfg.scale = 8;
  const Graph a = kronecker_graph(cfg, false);
  const Graph b = kronecker_graph(cfg, false);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  cfg.seed += 1;
  const Graph c = kronecker_graph(cfg, false);
  EXPECT_NE(a.num_edges(), c.num_edges());
}

TEST(Kronecker, SkewedInitiatorConcentratesDegree) {
  KroneckerConfig web;  // default initiator is web-like (high a)
  web.scale = 10;
  web.edge_factor = 8.0;
  const Graph g = kronecker_graph(web, false);
  // Hubs: the max out-degree should far exceed the mean.
  std::uint32_t max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  const double mean_deg =
      static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_GT(max_deg, 8 * mean_deg);
}

TEST(Kronecker, NoiseFlattensDegreeDistribution) {
  KroneckerConfig skewed;
  skewed.scale = 10;
  skewed.edge_factor = 8.0;
  KroneckerConfig road = skewed;
  road.a = 0.3;
  road.b = road.c = 0.25;
  road.d = 0.2;
  road.noise = 0.35;
  auto max_degree = [](const Graph& g) {
    std::uint32_t m = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      m = std::max(m, g.out_degree(v));
    }
    return m;
  };
  EXPECT_LT(max_degree(kronecker_graph(road, false)),
            max_degree(kronecker_graph(skewed, false)));
}

std::uint64_t csr_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  for (const std::uint64_t o : g.offsets()) mix(o);
  for (const VertexId v : g.edges_flat()) mix(v);
  return h;
}

TEST(Kronecker, EdgeStreamAndCsrPinnedAtScale10) {
  // The edge stream and the CSR layout feed every graph profile, so any
  // change to them would change profiles. Road's noise exercises the
  // blended initiator.
  struct Pin {
    const char* name;
    bool symmetrize;
    std::uint64_t edges;
    std::uint64_t digest;
  };
  for (const Pin& p : {Pin{"Google", false, 11329, 0xed770827ff604ebbULL},
                       Pin{"Google", true, 20150, 0x2dc4a94f147d8b61ULL},
                       Pin{"Road", false, 8154, 0xa30738b4780cdb87ULL},
                       Pin{"Road", true, 16228, 0x767c91a86336aa67ULL}}) {
    const Graph g = kronecker_graph(catalog_entry(p.name, 10).kron, p.symmetrize);
    EXPECT_EQ(g.num_edges(), p.edges) << p.name << " symmetrize " << p.symmetrize;
    EXPECT_EQ(csr_digest(g), p.digest) << p.name << " symmetrize " << p.symmetrize;
  }
}

TEST(Kronecker, RejectsBadConfig) {
  KroneckerConfig cfg;
  cfg.scale = 0;
  EXPECT_THROW(kronecker_graph(cfg, false), ContractViolation);
  cfg = KroneckerConfig{};
  cfg.noise = 0.9;
  EXPECT_THROW(kronecker_graph(cfg, false), ContractViolation);
}

TEST(KroneckerShared, OneConfigRequestedTwiceInARowGeneratesOnce) {
  KroneckerConfig cfg;
  cfg.scale = 8;
  cfg.seed = 905;
  const std::uint64_t synth0 = counter_value("data.graph_synth");
  std::weak_ptr<const Graph> first = kronecker_graph_shared(cfg, true);
  const auto second = kronecker_graph_shared(cfg, true);
  EXPECT_EQ(counter_value("data.graph_synth") - synth0, 1u);
  EXPECT_EQ(first.lock(), second);
  // The symmetrize flag is part of the key.
  EXPECT_NE(kronecker_graph_shared(cfg, false), second);
  EXPECT_EQ(counter_value("data.graph_synth") - synth0, 2u);
}

TEST(Catalog, HasAllEightTableTwoInputs) {
  const auto cat = snap_catalog();
  ASSERT_EQ(cat.size(), 8u);
  EXPECT_EQ(cat[0].name, "Google");
  EXPECT_TRUE(cat[0].training);
  std::size_t training = 0;
  for (const auto& e : cat) training += e.training ? 1 : 0;
  EXPECT_EQ(training, 1u);  // exactly one training input (the paper's split)
  std::set<std::uint64_t> seeds;
  for (const auto& e : cat) seeds.insert(e.kron.seed);
  EXPECT_EQ(seeds.size(), 8u);  // all inputs use distinct streams
}

TEST(Catalog, ScaleOverrideApplies) {
  const auto cat = snap_catalog(10);
  for (const auto& e : cat) EXPECT_EQ(e.kron.scale, 10u);
}

TEST(Catalog, LookupByNameAndUnknownThrows) {
  const auto e = catalog_entry("Road");
  EXPECT_EQ(e.input_type, "Road Networks");
  EXPECT_THROW(catalog_entry("NotAGraph"), ContractViolation);
}

TEST(Catalog, RoadIsSparserAndFlatterThanSocial) {
  const auto road = catalog_entry("Road", 10);
  const auto fb = catalog_entry("Facebook", 10);
  const Graph gr = kronecker_graph(road.kron, true);
  const Graph gf = kronecker_graph(fb.kron, true);
  EXPECT_LT(gr.num_edges(), gf.num_edges());
  // The topology differs far more than the volume: road networks are
  // near-regular while social networks have hubs.
  auto max_degree = [](const Graph& g) {
    std::uint32_t m = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      m = std::max(m, g.out_degree(v));
    }
    return m;
  };
  EXPECT_LT(max_degree(gr) * 2, max_degree(gf));
}

}  // namespace
}  // namespace simprof::data
