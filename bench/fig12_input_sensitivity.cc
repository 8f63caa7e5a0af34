// Figure 12: percentage of simulation points that fall in input-sensitive
// phases for the graph workloads — i.e. the sample size needed per
// *reference* input after the input-sensitivity test (Table II inputs:
// Google trains, the other seven are references).
//
// Expected shape (paper): 55–80% of the points stay (the reduction is 20–45%,
// 33.7% on average) — a large fraction of phases do not change performance
// with the input and can be skipped when exploring new inputs.
#include <iostream>

#include "bench_common.h"
#include "support/table.h"

int main(int argc, char** argv) {
  simprof::bench::ObsSession obs_session(argc, argv);
  using namespace simprof;
  core::WorkloadLab lab(bench::lab_config());

  std::cout << "Figure 12 — % of simulation points in input-sensitive "
               "phases (training input: Google)\n";
  Table table({"config", "sensitive_points", "reduction"});
  double total_reduction = 0.0;
  for (const auto& name : bench::graph_config_names()) {
    core::SensitivityStudy study = core::graph_input_study(name, "Google");
    study.budget_n = bench::kFig7SampleSize;
    study.budget_seed = 4242;
    const auto analysed = core::analyze_sensitivity(lab, study);
    const double frac =
        analysed.report.sensitive_point_fraction(*analysed.budget);
    table.row({name, Table::pct(frac), Table::pct(1.0 - frac)});
    total_reduction += 1.0 - frac;
  }
  const double n = static_cast<double>(bench::graph_config_names().size());
  table.row({"average", "", Table::pct(total_reduction / n)});
  table.print(std::cout);
  return 0;
}
