// google-benchmark for the online streaming phase former: per-unit ingest
// throughput, time to the first stable model (warmup + first recluster),
// and the full stream-then-finalize pass against batch form_phases on the
// same profile.
//
// Run via `bench/run.sh streaming` to refresh BENCH_streaming.json.
// Setup asserts the equivalence contract before any timing: in-order full
// ingestion with no retention cap must finalize to a model bit-identical to
// the batch pipeline — streaming throughput over a drifted model would be
// meaningless.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "benchmark_main.h"
#include "core/streaming.h"

namespace {

using namespace simprof;

constexpr const char* kWorkload = "wc_sp";
constexpr const char* kInput = "Google";

const core::ThreadProfile& oracle() {
  static const core::ThreadProfile p = [] {
    core::WorkloadLab lab(bench::lab_config());
    return lab.run(kWorkload, kInput).profile;
  }();
  return p;
}

const core::PhaseModel& batch_model() {
  static const core::PhaseModel m = core::form_phases(oracle());
  return m;
}

/// One-time contract check before any timing: streamed finalize must be
/// bit-identical to batch on in-order arrival.
void assert_stream_matches_batch() {
  static const bool checked = [] {
    core::StreamingPhaseFormer former{{}};
    former.ingest_range(oracle(), 0, oracle().num_units());
    const core::PhaseModel streamed = former.finalize();
    const core::PhaseModel& batch = batch_model();
    bool same = streamed.k == batch.k && streamed.labels == batch.labels &&
                streamed.centers.rows() == batch.centers.rows() &&
                streamed.centers.cols() == batch.centers.cols();
    if (same) {
      const auto fa = streamed.centers.flat();
      const auto fb = batch.centers.flat();
      same = std::equal(fa.begin(), fa.end(), fb.begin(), fb.end());
    }
    if (!same) {
      std::fprintf(stderr,
                   "perf_streaming: streamed model diverges from batch "
                   "(k=%zu vs %zu) — equivalence contract broken\n",
                   streamed.k, batch.k);
      std::exit(1);
    }
    return true;
  }();
  (void)checked;
}

// --- Ingest throughput: the full stream (reclusters included), units/s.

void BM_StreamIngest(benchmark::State& state) {
  assert_stream_matches_batch();
  const core::ThreadProfile& p = oracle();
  std::size_t reclusters = 0;
  for (auto _ : state) {
    core::StreamingPhaseFormer former{{}};
    former.ingest_range(p, 0, p.num_units());
    reclusters = former.reclusters();
    benchmark::DoNotOptimize(former.model().k);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.num_units()));
  state.counters["units"] = static_cast<double>(p.num_units());
  state.counters["reclusters"] = static_cast<double>(reclusters);
}
BENCHMARK(BM_StreamIngest)->Unit(benchmark::kMillisecond);

// --- Time to the first stable model: warmup ingestion up to and including
// the first recluster — how long a daemon waits before it can select.

void BM_StreamTimeToFirstModel(benchmark::State& state) {
  assert_stream_matches_batch();
  const core::ThreadProfile& p = oracle();
  std::size_t units_needed = 0;
  for (auto _ : state) {
    core::StreamingPhaseFormer former{{}};
    std::size_t u = 0;
    while (!former.has_model() && u < p.num_units()) former.ingest(p, u++);
    units_needed = u;
    benchmark::DoNotOptimize(former.model().k);
  }
  state.counters["units_to_model"] = static_cast<double>(units_needed);
}
BENCHMARK(BM_StreamTimeToFirstModel)->Unit(benchmark::kMillisecond);

// --- Finalize on an already-ingested stream (the last full recluster).

void BM_StreamFinalize(benchmark::State& state) {
  assert_stream_matches_batch();
  const core::ThreadProfile& p = oracle();
  for (auto _ : state) {
    state.PauseTiming();
    core::StreamingPhaseFormer former{{}};
    former.ingest_range(p, 0, p.num_units());
    state.ResumeTiming();
    const core::PhaseModel m = former.finalize();
    benchmark::DoNotOptimize(m.k);
  }
}
BENCHMARK(BM_StreamFinalize)->Unit(benchmark::kMillisecond);

// --- Context: the batch pipeline the streaming path must converge to.

void BM_BatchFormPhases(benchmark::State& state) {
  assert_stream_matches_batch();
  const core::ThreadProfile& p = oracle();
  std::size_t k = 0;
  double silhouette = 0.0;
  for (auto _ : state) {
    const core::PhaseModel m = core::form_phases(p);
    k = m.k;
    if (m.k >= 1 && m.k <= m.silhouette_scores.size()) {
      silhouette = m.silhouette_scores[m.k - 1];
    }
    benchmark::DoNotOptimize(m.k);
  }
  state.counters["batch_k"] = static_cast<double>(k);
  state.counters["silhouette"] = silhouette;
}
BENCHMARK(BM_BatchFormPhases)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return simprof::bench::benchmark_main(
      argc, argv, [](const simprof::bench::RunTimes&) {
        // The check exits non-zero on any divergence, so a run that gets
        // here recorded a zero delta.
        assert_stream_matches_batch();
        simprof::bench::record_figure("stream_batch_phase_delta", 0.0);
      });
}
