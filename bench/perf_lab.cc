// google-benchmark for the end-to-end lab pipeline: batched profile
// acquisition (WorkloadLab::run_batch), sparse feature extraction, blocked
// single-pass feature selection, and bulk unit classification — against the
// seed-era serial baseline (dense feature matrix, per-column copy + two-pass
// Pearson, per-unit vectorize-and-scan classification).
//
// Run via `bench/run.sh lab_pipeline` to refresh BENCH_lab_pipeline.json.
// All parallel variants are bit-identical to the serial path; only wall
// clock changes with the thread count.
#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "benchmark_main.h"
#include "core/phase.h"
#include "core/profile.h"
#include "core/sensitivity.h"
#include "stats/descriptive.h"
#include "stats/feature_select.h"
#include "stats/matrix.h"
#include "stats/sparse.h"
#include "support/rng.h"

namespace {

using namespace simprof;

/// A profile wide enough that the full dense feature matrix is the cost
/// center: many distinct methods, few touched per unit (the real shape —
/// Table I configs intern hundreds of methods, a unit's stack sees dozens).
core::ThreadProfile wide_profile(std::size_t units, std::size_t methods,
                                 std::size_t per_unit, std::uint64_t seed) {
  core::ThreadProfile p;
  for (std::size_t m = 0; m < methods; ++m) {
    p.method_names.push_back("m" + std::to_string(m));
    p.method_kinds.push_back(jvm::OpKind::kMap);
  }
  Rng rng(seed);
  for (std::size_t i = 0; i < units; ++i) {
    core::UnitRecord u;
    u.unit_id = i;
    u.counters.instructions = 1'000'000;
    u.counters.cycles =
        1'000'000 + static_cast<std::uint64_t>(rng.next_below(2'000'000));
    for (std::size_t j = 0; j < per_unit; ++j) {
      u.methods.push_back(
          static_cast<jvm::MethodId>((i * 17 + j * 131) % methods));
      u.counts.push_back(static_cast<std::uint32_t>(1 + rng.next_below(20)));
    }
    p.units.push_back(std::move(u));
  }
  return p;
}

constexpr std::size_t kUnits = 1500;
constexpr std::size_t kMethods = 1200;
constexpr std::size_t kPerUnit = 16;
constexpr std::size_t kTopK = 100;

std::vector<double> ipc_of(const core::ThreadProfile& p) {
  std::vector<double> ipc(p.num_units());
  for (std::size_t u = 0; u < p.num_units(); ++u) ipc[u] = p.units[u].ipc();
  return ipc;
}

/// Seed-era feature selection: copy each column out of the dense matrix and
/// run the two-pass centered Pearson, then convert r → F.
std::vector<double> naive_f_regression(const stats::Matrix& x,
                                       std::span<const double> y) {
  const std::size_t n = x.rows();
  std::vector<double> out(x.cols(), 0.0);
  std::vector<double> col(n);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t i = 0; i < n; ++i) col[i] = x.at(i, f);
    const double r = stats::pearson(col, y);
    if (!std::isfinite(r) || r == 0.0) continue;
    const double r2 = std::min(r * r, 1.0 - 1e-12);
    out[f] = r2 / (1.0 - r2) * static_cast<double>(n - 2);
  }
  return out;
}

/// Seed-era classification: vectorize one unit at a time (rebuilding the
/// name map per unit) and scan the centers.
std::vector<std::size_t> naive_classify(const core::PhaseModel& model,
                                        const core::ThreadProfile& ref) {
  std::vector<std::size_t> labels(ref.num_units(), 0);
  for (std::size_t u = 0; u < ref.num_units(); ++u) {
    const auto v = core::vectorize_unit(model, ref, u);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t h = 0; h < model.k; ++h) {
      const double d2 = stats::squared_distance(v, model.centers.row(h));
      if (d2 < best) {
        best = d2;
        labels[u] = h;
      }
    }
  }
  return labels;
}

const core::ThreadProfile& train_profile() {
  static const core::ThreadProfile p = wide_profile(kUnits, kMethods,
                                                    kPerUnit, 11);
  return p;
}

const core::ThreadProfile& reference_profile() {
  static const core::ThreadProfile p = wide_profile(kUnits, kMethods,
                                                    kPerUnit, 23);
  return p;
}

const core::PhaseModel& trained_model() {
  static const core::PhaseModel m = core::form_phases(train_profile());
  return m;
}

// --- End-to-end feature pipeline: vectorize → select → densify → classify.

void BM_PipelineNaive(benchmark::State& state) {
  const auto& train = train_profile();
  const auto& ref = reference_profile();
  const auto& model = trained_model();
  const auto ipc = ipc_of(train);
  for (auto _ : state) {
    stats::Matrix dense = core::build_feature_matrix(train);
    const auto scores = naive_f_regression(dense, ipc);
    const auto selected = stats::top_k_indices(scores, kTopK);
    stats::Matrix features(dense.rows(), selected.size());
    for (std::size_t i = 0; i < dense.rows(); ++i) {
      for (std::size_t j = 0; j < selected.size(); ++j) {
        features.at(i, j) = dense.at(i, selected[j]);
      }
    }
    features.normalize_rows_l1();
    const auto labels = naive_classify(model, ref);
    benchmark::DoNotOptimize(features.flat().data());
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * kUnits);
}
BENCHMARK(BM_PipelineNaive)->Unit(benchmark::kMillisecond);

void BM_PipelineBatch(benchmark::State& state) {
  const auto& train = train_profile();
  const auto& ref = reference_profile();
  const auto& model = trained_model();
  const auto ipc = ipc_of(train);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    stats::SparseMatrix sparse = core::build_sparse_feature_matrix(train);
    const auto scores = stats::f_regression(sparse, ipc, threads);
    const auto selected = stats::top_k_indices(scores, kTopK);
    stats::Matrix features = sparse.select_columns_dense(selected, threads);
    features.normalize_rows_l1();
    const auto labels = core::classify_units(model, ref, threads);
    benchmark::DoNotOptimize(features.flat().data());
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * kUnits);
}
BENCHMARK(BM_PipelineBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- Stage microbenches: where the pipeline win comes from.

void BM_FeatureBuildDense(benchmark::State& state) {
  const auto& train = train_profile();
  for (auto _ : state) {
    auto m = core::build_feature_matrix(train);
    benchmark::DoNotOptimize(m.flat().data());
  }
}
BENCHMARK(BM_FeatureBuildDense)->Unit(benchmark::kMillisecond);

void BM_FeatureBuildSparse(benchmark::State& state) {
  const auto& train = train_profile();
  for (auto _ : state) {
    auto m = core::build_sparse_feature_matrix(train);
    benchmark::DoNotOptimize(m.rows_filled());
  }
}
BENCHMARK(BM_FeatureBuildSparse)->Unit(benchmark::kMillisecond);

void BM_FRegressionNaive(benchmark::State& state) {
  const auto& train = train_profile();
  const stats::Matrix dense = core::build_feature_matrix(train);
  const auto ipc = ipc_of(train);
  for (auto _ : state) {
    auto scores = naive_f_regression(dense, ipc);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_FRegressionNaive)->Unit(benchmark::kMillisecond);

void BM_FRegressionDense(benchmark::State& state) {
  const auto& train = train_profile();
  const stats::Matrix dense = core::build_feature_matrix(train);
  const auto ipc = ipc_of(train);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto scores = stats::f_regression(dense, ipc, threads);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_FRegressionDense)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FRegressionSparse(benchmark::State& state) {
  const auto& train = train_profile();
  const stats::SparseMatrix sparse = core::build_sparse_feature_matrix(train);
  const auto ipc = ipc_of(train);
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto scores = stats::f_regression(sparse, ipc, threads);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_FRegressionSparse)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ClassifyNaive(benchmark::State& state) {
  const auto& ref = reference_profile();
  const auto& model = trained_model();
  for (auto _ : state) {
    auto labels = naive_classify(model, ref);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * kUnits);
}
BENCHMARK(BM_ClassifyNaive)->Unit(benchmark::kMillisecond);

void BM_ClassifyBatch(benchmark::State& state) {
  const auto& ref = reference_profile();
  const auto& model = trained_model();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto labels = core::classify_units(model, ref, threads);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * kUnits);
}
BENCHMARK(BM_ClassifyBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- Batched lab acquisition: decode a warm cache through run_batch. The
// cache is populated outside the timing loop (the oracle passes run once
// per process, then hit disk).

void BM_LabBatchDecode(benchmark::State& state) {
  core::LabConfig cfg = bench::lab_config();
  cfg.threads = static_cast<std::size_t>(state.range(0));
  core::WorkloadLab lab(cfg);
  std::vector<core::BatchItem> items;
  for (const char* name : {"wc_hp", "wc_sp", "grep_hp", "grep_sp"}) {
    items.push_back({name, "Google", {}});
  }
  lab.run_batch(items);  // warm the on-disk cache before timing
  for (auto _ : state) {
    auto runs = lab.run_batch(items);
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_LabBatchDecode)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The seed pipeline BM_PipelineNaive reproduces, for the output's context.
  benchmark::AddCustomContext("seed_pipeline",
                              "dense_column_copy_pearson_serial");
  return simprof::bench::benchmark_main(
      argc, argv, [](const simprof::bench::RunTimes& times) {
        for (const std::string t : {"1", "2", "4", "8"}) {
          simprof::bench::record_speedup(
              times, "speedup_vs_naive.pipeline_x" + t,
              "BM_PipelineBatch/" + t, "BM_PipelineNaive");
        }
      });
}
