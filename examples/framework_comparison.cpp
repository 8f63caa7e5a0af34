// Framework comparison (Section IV-F): the same WordCount benchmark on
// MiniHadoop vs MiniSpark, side by side — phase structure, phase types and
// CPI traces, the data behind the paper's Figures 14 and 15.
//
//   $ ./build/examples/framework_comparison [scale]
#include <algorithm>
#include <iostream>
#include <numeric>

#include "core/lab.h"
#include "core/phase.h"
#include "support/table.h"

namespace {

void describe(const char* title, const simprof::core::ThreadProfile& profile,
              const simprof::core::PhaseModel& model) {
  using simprof::Table;
  std::cout << "\n== " << title << ": " << profile.num_units()
            << " units, " << model.k << " phases, oracle CPI "
            << Table::num(profile.oracle_cpi()) << "\n";
  Table t({"phase", "weight", "mean_cpi", "cov", "type", "dominant_method"});
  for (std::size_t h = 0; h < model.k; ++h) {
    t.row({std::to_string(h), Table::pct(model.phases[h].weight),
           Table::num(model.phases[h].mean_cpi),
           Table::num(model.phases[h].cov),
           std::string(simprof::jvm::to_string(model.phase_types[h])),
           simprof::core::dominant_method(model, h).value_or("-")});
  }
  t.print_aligned(std::cout);

  // A terminal-friendly CPI sparkline over time (unit order).
  static const char* kLevels[] = {"_", ".", "-", "=", "*", "#"};
  const auto cpis = profile.cpis();
  const double lo = *std::min_element(cpis.begin(), cpis.end());
  const double hi = *std::max_element(cpis.begin(), cpis.end());
  std::cout << "CPI over time [" << Table::num(lo) << " .. " << Table::num(hi)
            << "]:\n";
  const std::size_t buckets = 100;
  for (std::size_t i = 0; i < buckets; ++i) {
    const std::size_t a = i * cpis.size() / buckets;
    const std::size_t b = std::max(a + 1, (i + 1) * cpis.size() / buckets);
    double avg = 0.0;
    for (std::size_t u = a; u < b; ++u) avg += cpis[u];
    avg /= static_cast<double>(b - a);
    const int level = hi > lo ? static_cast<int>(5.0 * (avg - lo) / (hi - lo))
                              : 0;
    std::cout << kLevels[std::clamp(level, 0, 5)];
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace simprof;
  core::LabConfig cfg;
  cfg.scale = argc > 1 ? atof(argv[1]) : 0.3;
  core::WorkloadLab lab(cfg);

  const auto hadoop = lab.run("wc_hp");
  const auto spark = lab.run("wc_sp");
  const auto hadoop_model = core::form_phases(hadoop.profile);
  const auto spark_model = core::form_phases(spark.profile);

  describe("WordCount on Hadoop (Figure 15)", hadoop.profile, hadoop_model);
  describe("WordCount on Spark (Figure 14)", spark.profile, spark_model);

  std::cout << "\nSpark CPI advantage: "
            << Table::num(hadoop.profile.oracle_cpi() /
                          spark.profile.oracle_cpi(), 2)
            << "x lower CPI (map-side reduce couples map+reduce+IO into one "
               "phase; Hadoop pays for sort/spill and compressed IO)\n";
  return 0;
}
