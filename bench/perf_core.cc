// google-benchmark microbenchmarks for the SimProf toolchain itself:
// clustering speed (the reason the paper caps features at K = 100),
// silhouette scoring, feature selection, cache-model throughput, profiling
// overhead (the paper claims a negligible slowdown at the 10M-instruction
// snapshot interval), pipeline flushing on profiled and non-profiled cores,
// the MAV tracker, the engines' functional kernels (the shared radix sort
// and merge, the Spark combiner's drain, the CSR build) and sampling-plan
// construction.
#include <benchmark/benchmark.h>

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "benchmark_main.h"
#include "core/phase.h"
#include "core/profile.h"
#include "core/sampling.h"
#include "core/sensitivity.h"
#include "data/kronecker.h"
#include "exec/cluster.h"
#include "exec/pipeline.h"
#include "hw/access_stream.h"
#include "hw/mav.h"
#include "hw/memory_system.h"
#include "minispark/combiner.h"
#include "stats/feature_select.h"
#include "stats/kmeans.h"
#include "stats/silhouette.h"
#include "support/rng.h"
#include "support/sort.h"

namespace {

using namespace simprof;

stats::Matrix synthetic_features(std::size_t n, std::size_t d,
                                 std::size_t clusters, Rng& rng) {
  stats::Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t j = 0; j < d; ++j) {
      m.at(i, j) = (j % clusters == c ? 1.0 : 0.1) + 0.05 * rng.next_gaussian();
    }
  }
  return m;
}

void BM_KMeans(benchmark::State& state) {
  Rng rng(1);
  const auto k = static_cast<std::size_t>(state.range(0));
  stats::Matrix pts = synthetic_features(1000, 100, 6, rng);
  for (auto _ : state) {
    auto res = stats::kmeans(pts, k, rng);
    benchmark::DoNotOptimize(res.inertia);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KMeans)->Arg(2)->Arg(8)->Arg(20);

void BM_ChooseK(benchmark::State& state) {
  Rng rng(2);
  stats::Matrix pts = synthetic_features(
      static_cast<std::size_t>(state.range(0)), 100, 5, rng);
  stats::ChooseKConfig cfg;
  cfg.max_k = 20;
  for (auto _ : state) {
    auto res = stats::choose_k(pts, rng, cfg);
    benchmark::DoNotOptimize(res.k);
  }
}
BENCHMARK(BM_ChooseK)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

// Thread-count sweeps for the parallel phase-formation engine. Run via
// `bench/run.sh phase_formation` to refresh BENCH_phase_formation.json (the
// perf trajectory across PRs). Output is bit-identical across thread
// counts; only wall clock changes.
void BM_KMeansThreads(benchmark::State& state) {
  Rng rng(1);
  stats::Matrix pts = synthetic_features(1000, 100, 6, rng);
  stats::KMeansConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto res = stats::kmeans(pts, 8, rng, cfg);
    benchmark::DoNotOptimize(res.inertia);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KMeansThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ChooseKThreads(benchmark::State& state) {
  Rng rng(2);
  stats::Matrix pts = synthetic_features(800, 100, 5, rng);
  stats::ChooseKConfig cfg;
  cfg.max_k = 20;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto res = stats::choose_k(pts, rng, cfg);
    benchmark::DoNotOptimize(res.k);
  }
}
BENCHMARK(BM_ChooseKThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SilhouetteExactThreads(benchmark::State& state) {
  Rng rng(3);
  stats::Matrix pts = synthetic_features(2000, 100, 4, rng);
  auto res = stats::kmeans(pts, 4, rng);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::exact_silhouette(pts, res.labels, 4, threads));
  }
}
BENCHMARK(BM_SilhouetteExactThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SilhouetteSampled(benchmark::State& state) {
  Rng rng(3);
  stats::Matrix pts = synthetic_features(2000, 100, 4, rng);
  auto res = stats::kmeans(pts, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::sampled_silhouette(pts, res.labels, 4));
  }
}
BENCHMARK(BM_SilhouetteSampled);

// Ablation: feature-selection cost and clustering cost vs feature count —
// why the paper caps at the top K = 100 methods.
void BM_FRegression(benchmark::State& state) {
  Rng rng(4);
  const auto d = static_cast<std::size_t>(state.range(0));
  stats::Matrix pts = synthetic_features(1000, d, 5, rng);
  std::vector<double> y(1000);
  for (auto& v : y) v = rng.next_double();
  for (auto _ : state) {
    auto scores = stats::f_regression(pts, y);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_FRegression)->Arg(50)->Arg(100)->Arg(1000);

void BM_CacheAccessSequential(benchmark::State& state) {
  hw::MemorySystem mem({});
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem.access(0, hw::MemRef{line++ % (1 << 18), false, true}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessSequential);

void BM_CacheAccessRandom(benchmark::State& state) {
  hw::MemorySystem mem({});
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.access(
        0, hw::MemRef{rng.next_below(1 << 18), false, false}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessRandom);

// The MAV tracker behind the cache model: one record() per line touch, with
// a reset every 2^15 touches (a unit boundary). Sequential cycles over 4096
// lines (every re-touch at distance 4095); zipf and random spread touches
// over a 64 MB region, skewed or uniform.
enum class TouchPattern { kSequential, kZipf, kRandom };

void BM_ReuseTrackerRecord(benchmark::State& state, TouchPattern pattern) {
  constexpr std::size_t kUnit = 1 << 15;
  constexpr std::size_t kTouches = 8 * kUnit;
  constexpr std::uint64_t kRegion = 64ull << 20;
  Rng rng(9);
  std::vector<hw::MemRef> refs(kTouches);
  if (pattern == TouchPattern::kZipf) {
    hw::AccessStream::zipf(0, kRegion, kTouches, 0.99, rng)
        .take(refs.data(), kTouches);
  } else if (pattern == TouchPattern::kRandom) {
    hw::AccessStream::random(0, kRegion, kTouches, rng)
        .take(refs.data(), kTouches);
  }
  std::vector<hw::LineAddr> lines(kTouches);
  for (std::size_t i = 0; i < kTouches; ++i) {
    lines[i] = pattern == TouchPattern::kSequential ? i % 4096 : refs[i].line;
  }
  hw::ReuseTracker tracker;
  std::size_t i = 0;
  for (auto _ : state) {
    tracker.record(lines[i], hw::AccessLevel::kL2);
    if (++i % kUnit == 0) {
      benchmark::DoNotOptimize(tracker.block());
      tracker.reset();
      if (i == kTouches) i = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ReuseTrackerRecord, sequential, TouchPattern::kSequential);
BENCHMARK_CAPTURE(BM_ReuseTrackerRecord, zipf, TouchPattern::kZipf);
BENCHMARK_CAPTURE(BM_ReuseTrackerRecord, random, TouchPattern::kRandom);

// The whole default hierarchy (L1 → L2 → LLC) behind the profiled core: one
// access_outcome per reference of a recorded 2^18-reference tape.
// Sequential streams 2^18 distinct lines once per pass (every touch misses
// to DRAM, prefetchable); zipf and random spread references over a 64 MB
// region, skewed (mostly L1/L2 hits) or uniform (mostly LLC and DRAM).
void BM_MemoryHierarchy(benchmark::State& state, TouchPattern pattern) {
  constexpr std::size_t kRefs = 1 << 18;
  constexpr std::uint64_t kRegion = 64ull << 20;
  Rng rng(11);
  std::vector<hw::MemRef> refs(kRefs);
  if (pattern == TouchPattern::kSequential) {
    hw::AccessStream::strided(0, kRefs * hw::kLineBytes)
        .take(refs.data(), kRefs);
  } else if (pattern == TouchPattern::kZipf) {
    hw::AccessStream::zipf(0, kRegion, kRefs, 0.99, rng)
        .take(refs.data(), kRefs);
  } else {
    hw::AccessStream::random(0, kRegion, kRefs, rng).take(refs.data(), kRefs);
  }
  hw::MemorySystem mem({});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.access_outcome(0, refs[i]));
    if (++i == kRefs) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_MemoryHierarchy, sequential, TouchPattern::kSequential);
BENCHMARK_CAPTURE(BM_MemoryHierarchy, random, TouchPattern::kRandom);
BENCHMARK_CAPTURE(BM_MemoryHierarchy, zipf, TouchPattern::kZipf);

// MiniHadoop's spill sort: 2^19 (word id, count) pairs, about one 8 MB map
// buffer, with keys Zipf-drawn over a 2^20-word vocabulary.
using KeyValue = std::pair<std::uint32_t, std::uint64_t>;

std::vector<KeyValue> zipf_pairs(std::size_t n, Rng& rng) {
  std::vector<hw::MemRef> keys(n);
  hw::AccessStream::zipf(0, (1ull << 20) * hw::kLineBytes, n, 0.9, rng)
      .take(keys.data(), n);
  std::vector<KeyValue> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {static_cast<std::uint32_t>(keys[i].line), i};
  }
  return v;
}

// The shared radix sort over 2^19 pairs whose keys are exactly
// state.range(0) bits wide: Zipf-drawn ranks, scrambled into that width.
// sort_hp's word ids are 18 bits (two passes), 32 and 64 take three and six.
void BM_SortByKey(benchmark::State& state) {
  Rng rng(3);
  const auto width = static_cast<unsigned>(state.range(0));
  const std::uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> input;
  for (const KeyValue& kv : zipf_pairs(1 << 19, rng)) {
    input.emplace_back((kv.first * 0x9e3779b97f4a7c15ull) & mask, kv.second);
  }
  input[0].first |= 1ull << (width - 1);
  auto work = input;
  for (auto _ : state) {
    state.PauseTiming();
    work = input;
    state.ResumeTiming();
    support::sort_by_key(work);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_SortByKey)->Arg(16)->Arg(18)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The reduce-side merge: 24 sorted segments of 2^14 pairs each, collected
// into a vector.
void BM_MergeByKey(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::vector<KeyValue>> runs;
  for (int r = 0; r < 24; ++r) {
    runs.push_back(zipf_pairs(1 << 14, rng));
    support::sort_by_key(runs.back());
  }
  const std::vector<std::span<const KeyValue>> spans(runs.begin(), runs.end());
  std::vector<KeyValue> out;
  out.reserve(24 * (1 << 14));
  for (auto _ : state) {
    out.clear();
    support::merge_by_key(spans, [&](const KeyValue& kv) { out.push_back(kv); });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 24 * (1 << 14));
}
BENCHMARK(BM_MergeByKey)->Unit(benchmark::kMillisecond);

// The Spark combiner's drain: 120K distinct word ids (wc_sp's map side)
// folded from 480K records, then drained into std::unordered_map order,
// with the map side's in.size()/4 + 16 reserve or with none.
void BM_CombinerDrain(benchmark::State& state, bool reserve) {
  Rng rng(6);
  std::vector<std::uint32_t> records;
  for (const KeyValue& kv : zipf_pairs(480000, rng)) {
    records.push_back(kv.first * 2654435761u % 120000);
  }
  const auto add = [](const std::uint64_t& a, const std::uint64_t& b) {
    return a + b;
  };
  const std::optional<std::size_t> map_reserve =
      reserve ? std::optional<std::size_t>(records.size() / 4 + 16)
              : std::nullopt;
  std::size_t keys = 0;
  for (auto _ : state) {
    state.PauseTiming();
    spark::FlatCombiner<std::uint32_t, std::uint64_t> combiner(map_reserve);
    for (const std::uint32_t k : records) combiner.add(k, 1, add);
    keys = combiner.size();
    state.ResumeTiming();
    auto out = combiner.drain();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(keys));
}
BENCHMARK_CAPTURE(BM_CombinerDrain, reserve, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CombinerDrain, none, false)
    ->Unit(benchmark::kMillisecond);

// The CSR build of a symmetrized graph the size of cc_sp's: 2^17 vertices,
// 16 edges each, both endpoints Zipf-skewed (duplicates and self-loops).
void BM_GraphFromEdges(benchmark::State& state) {
  Rng rng(8);
  constexpr std::uint32_t kVertices = 1u << 17;
  const auto ends = zipf_pairs(2 * 16 * kVertices, rng);
  std::vector<data::Edge> input;
  for (std::size_t i = 0; i + 1 < ends.size(); i += 2) {
    input.push_back(data::Edge{ends[i].first * 2654435761u % kVertices,
                               ends[i + 1].first * 40503u % kVertices});
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto edges = input;
    state.ResumeTiming();
    const auto g = data::Graph::from_edges(kVertices, std::move(edges), true);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_GraphFromEdges)->Unit(benchmark::kMillisecond);

void BM_KroneckerGeneration(benchmark::State& state) {
  data::KroneckerConfig cfg;
  cfg.scale = static_cast<std::uint32_t>(state.range(0));
  cfg.edge_factor = 8.0;
  for (auto _ : state) {
    auto g = data::kronecker_graph(cfg, false);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(cfg.edge_factor * (1u << cfg.scale)));
}
BENCHMARK(BM_KroneckerGeneration)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Profiling overhead: executor work with and without the SimProf hook
// attached. The paper tunes the snapshot interval so this gap is negligible.
void run_executor_work(bool with_hook, benchmark::State& state) {
  exec::ClusterConfig cfg;
  cfg.memory.num_cores = 1;
  exec::Cluster cluster(cfg);
  core::SamplingManager manager(cluster.methods());
  if (with_hook) cluster.set_profiling_hook(&manager);
  auto& ctx = cluster.context(0);
  const auto m = cluster.methods().intern("bench.Work.run", jvm::OpKind::kMap);
  for (auto _ : state) {
    jvm::MethodScope scope(ctx.stack(), m);
    auto stream = hw::AccessStream::strided(0, 1 << 16);
    ctx.execute(1'000'000, stream);
  }
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}

void BM_ExecuteUnprofiled(benchmark::State& state) {
  run_executor_work(false, state);
}
BENCHMARK(BM_ExecuteUnprofiled);

void BM_ExecuteProfiled(benchmark::State& state) {
  run_executor_work(true, state);
}
BENCHMARK(BM_ExecuteProfiled);

// Pipeline flushing (exec/pipeline.h): one three-operator pipeline charged
// on the profiled core (jittered slices through the cache model and MAV
// tracker) and on a non-profiled core (one functional step per operator).
void BM_PipelineFlush(benchmark::State& state, std::uint32_t core) {
  exec::ClusterConfig cfg;
  exec::Cluster cluster(cfg);
  auto& ctx = cluster.context(core);
  const auto scan = cluster.methods().intern("bench.Pipeline.scan",
                                             jvm::OpKind::kIo);
  const auto map = cluster.methods().intern("bench.Pipeline.map",
                                            jvm::OpKind::kMap);
  const auto combine = cluster.methods().intern("bench.Pipeline.combine",
                                                jvm::OpKind::kReduce);
  Rng rng(11);
  for (auto _ : state) {
    exec::PipelineBatcher b;
    b.push_frame(combine);
    b.add(scan, 2'000'000, hw::AccessStream::strided(0, 1 << 20));
    b.add(map, 400'000, {});
    b.pop_frame();
    b.add(combine, 600'000,
          hw::AccessStream::zipf(1 << 24, 1 << 20, 20'000, 0.8, rng));
    b.flush(ctx, ctx.pipeline_slice_instrs());
  }
  state.SetItemsProcessed(state.iterations() * 3'000'000);
}
BENCHMARK_CAPTURE(BM_PipelineFlush, profiled, 0u);
BENCHMARK_CAPTURE(BM_PipelineFlush, unprofiled, 1u);

core::ThreadProfile bench_profile(std::size_t units) {
  core::ThreadProfile p;
  for (int m = 0; m < 40; ++m) {
    p.method_names.push_back("m" + std::to_string(m));
    p.method_kinds.push_back(jvm::OpKind::kMap);
  }
  Rng rng(6);
  for (std::size_t i = 0; i < units; ++i) {
    core::UnitRecord u;
    u.unit_id = i;
    u.counters.instructions = 1'000'000;
    u.counters.cycles =
        1'000'000 + static_cast<std::uint64_t>(rng.next_below(2'000'000));
    for (int j = 0; j < 6; ++j) {
      u.methods.push_back(static_cast<jvm::MethodId>((i + 7ull * j) % 40));
      u.counts.push_back(static_cast<std::uint32_t>(1 + rng.next_below(20)));
    }
    p.units.push_back(std::move(u));
  }
  return p;
}

void BM_FormPhases(benchmark::State& state) {
  const auto p = bench_profile(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto model = core::form_phases(p);
    benchmark::DoNotOptimize(model.k);
  }
}
BENCHMARK(BM_FormPhases)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_StratifiedPlan(benchmark::State& state) {
  const auto p = bench_profile(2000);
  const auto model = core::form_phases(p);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto plan = core::simprof_sample(p, model, 20, seed++);
    benchmark::DoNotOptimize(plan.estimated_cpi);
  }
}
BENCHMARK(BM_StratifiedPlan);

void BM_UnitClassification(benchmark::State& state) {
  const auto train = bench_profile(1000);
  const auto ref = bench_profile(1000);
  const auto model = core::form_phases(train);
  for (auto _ : state) {
    auto labels = core::classify_units(model, ref);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_UnitClassification);

}  // namespace

int main(int argc, char** argv) {
  // Seed-PR serial baselines (1-core CI host), kept in the output's context
  // so later runs compare against the original per-pair-loop code.
  benchmark::AddCustomContext("seed_BM_ChooseK_200_ms", "68.3");
  benchmark::AddCustomContext("seed_BM_ChooseK_800_ms", "381");
  benchmark::AddCustomContext("seed_BM_KMeans_20_ms", "27.7");
  benchmark::AddCustomContext("seed_BM_SilhouetteSampled_ms", "10.0");
  return simprof::bench::benchmark_main(argc, argv);
}
