// Estimator × feature-mode accuracy grid (run via `bench/run.sh estimators`
// → BENCH_estimators.json).
//
// The deliverable of the MAV + two-phase subsystem: CPI sampling error at
// the Fig. 7 sample size for every cell of {freq, mav, combined} features ×
// {Neyman, two-phase} estimators, across the paper's twelve workload
// configurations. Like perf_service this is a custom sweep driver, not a
// google-benchmark suite — the quantity under test is estimation accuracy,
// not wall time, so each cell is the mean relative error over
// kErrorRepetitions seeds (single draws are dominated by luck).
//
// Acceptance (exit non-zero on failure): MAV-informed phases must pay off —
// the combined feature mode beats freq on mean sampling error, under the
// same estimator, on at least one configuration.
//
// Flags (after the common obs flags): --out FILE.
#include <array>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/analysis.h"
#include "features/feature_mode.h"
#include "support/table.h"

namespace {

using namespace simprof;

struct Cell {
  double error = 0.0;         ///< mean relative CPI error over seeds
  double ci_rel_width = 0.0;  ///< mean CI width / estimate (0 if estimate 0)
};

constexpr std::size_t kModes = 3;
constexpr std::size_t kEstimators = 2;

core::Estimator estimator(std::size_t e) {
  return static_cast<core::Estimator>(e);
}

}  // namespace

int run_grid(int argc, char** argv) {
  std::string out = "BENCH_estimators.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }

  core::WorkloadLab lab(bench::lab_config());
  const auto& names = bench::config_names();
  const auto runs = bench::run_configs(lab, names);

  std::cout << "Estimator grid — CPI sampling error (sample size "
            << bench::kFig7SampleSize << ", " << bench::kErrorRepetitions
            << " seeds)\n";
  Table table({"config", "freq|ney", "freq|2p", "mav|ney", "mav|2p",
               "comb|ney", "comb|2p"});

  // grid[config][mode][estimator]
  std::vector<std::array<std::array<Cell, kEstimators>, kModes>> grid(
      runs.size());
  double sums[kModes][kEstimators] = {};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& prof = runs[i].profile;
    std::vector<std::string> row{names[i]};
    for (std::size_t m = 0; m < kModes; ++m) {
      core::AnalysisOptions options;
      options.features = static_cast<features::FeatureMode>(m);
      const auto model = core::analyze_phases(prof, options);
      for (std::size_t e = 0; e < kEstimators; ++e) {
        Cell cell;
        for (int s = 0; s < bench::kErrorRepetitions; ++s) {
          const core::SamplePlan plan = core::stratified_sample(
              prof, model, bench::kFig7SampleSize, 1000 + s, estimator(e));
          cell.error += core::relative_error(plan, prof);
          if (plan.estimated_cpi > 0.0) {
            cell.ci_rel_width += 2.0 * plan.ci.margin / plan.estimated_cpi;
          }
        }
        cell.error /= bench::kErrorRepetitions;
        cell.ci_rel_width /= bench::kErrorRepetitions;
        grid[i][m][e] = cell;
        sums[m][e] += cell.error;
      }
    }
    for (std::size_t m = 0; m < kModes; ++m) {
      for (std::size_t e = 0; e < kEstimators; ++e) {
        row.push_back(Table::pct(grid[i][m][e].error));
      }
    }
    table.row(std::move(row));
  }
  const double n = static_cast<double>(runs.size());
  table.row({"average", Table::pct(sums[0][0] / n), Table::pct(sums[0][1] / n),
             Table::pct(sums[1][0] / n), Table::pct(sums[1][1] / n),
             Table::pct(sums[2][0] / n), Table::pct(sums[2][1] / n)});
  table.print(std::cout);

  // Acceptance: combined must beat freq under the same estimator somewhere.
  std::size_t combined_beats_freq = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t e = 0; e < kEstimators; ++e) {
      if (grid[i][2][e].error < grid[i][0][e].error) ++combined_beats_freq;
    }
  }

  // Manifest quality figures for the `simprof report` regression gate:
  // the historical freq/Neyman error, the MAV-informed combined error, and
  // the two-phase CI width (all lower-is-better in the gate's table).
  obs::ledger().set_config("sample_size",
                           std::to_string(bench::kFig7SampleSize));
  obs::ledger().set_quality("sampling_error_frac", sums[0][0] / n);
  obs::ledger().set_quality("mav_sampling_error_frac", sums[2][0] / n);
  double tp_width = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    tp_width += grid[i][2][1].ci_rel_width;
  }
  obs::ledger().set_quality("two_phase_ci_rel_width", tp_width / n);

  std::ofstream os(out);
  os << "{\n \"sample_size\": " << bench::kFig7SampleSize
     << ",\n \"repetitions\": " << bench::kErrorRepetitions
     << ",\n \"configs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << "  {\"config\": \"" << names[i] << "\", \"cells\": [";
    bool first = true;
    for (std::size_t m = 0; m < kModes; ++m) {
      for (std::size_t e = 0; e < kEstimators; ++e) {
        if (!first) os << ", ";
        first = false;
        os << "{\"features\": \""
           << features::to_string(static_cast<features::FeatureMode>(m))
           << "\", \"estimator\": \"" << core::to_string(estimator(e))
           << "\", \"error\": " << grid[i][m][e].error
           << ", \"ci_rel_width\": " << grid[i][m][e].ci_rel_width << "}";
      }
    }
    os << "]}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << " ],\n \"averages\": {";
  {
    bool first = true;
    for (std::size_t m = 0; m < kModes; ++m) {
      for (std::size_t e = 0; e < kEstimators; ++e) {
        if (!first) os << ", ";
        first = false;
        os << "\"" << features::to_string(static_cast<features::FeatureMode>(m))
           << "|" << core::to_string(estimator(e)) << "\": " << sums[m][e] / n;
      }
    }
  }
  os << "},\n \"combined_beats_freq_cells\": " << combined_beats_freq
     << "\n}\n";
  os.close();

  std::cout << "combined beats freq (same estimator) on "
            << combined_beats_freq << "/" << runs.size() * kEstimators
            << " cells\n";
  if (combined_beats_freq == 0) {
    std::cerr << "FAIL: combined features never beat freq — MAV signal "
                 "missing from the grid\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run_grid);
}
