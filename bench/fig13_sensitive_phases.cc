// Figure 13: number of input-sensitive vs input-insensitive phases per
// graph workload, accumulated across the seven Table II reference inputs
// (Algorithm 1).
//
// Expected shape (paper): for most workloads at least ~40% of the phases
// are input-INsensitive — the headroom the Figure 12 reduction comes from.
#include <iostream>

#include "bench_common.h"
#include "support/table.h"

int main(int argc, char** argv) {
  simprof::bench::ObsSession obs_session(argc, argv);
  using namespace simprof;
  core::WorkloadLab lab(bench::lab_config());

  std::cout << "Figure 13 — input-sensitive vs insensitive phases "
               "(training input: Google, 7 references)\n";
  Table table({"config", "sensitive", "insensitive", "total",
               "insensitive_frac"});
  for (const auto& name : bench::graph_config_names()) {
    const auto analysed =
        core::analyze_sensitivity(lab, core::graph_input_study(name, "Google"));
    const auto& report = analysed.report;
    const std::size_t k = analysed.model.k;
    table.row({name, std::to_string(report.num_sensitive()),
               std::to_string(report.num_insensitive()), std::to_string(k),
               Table::pct(static_cast<double>(report.num_insensitive()) /
                          static_cast<double>(k))});
  }
  table.print(std::cout);
  return 0;
}
