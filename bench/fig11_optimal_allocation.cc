// Figure 11: how optimal allocation distributes the simulation points of
// cc_sp across phases (sorted by phase weight), alongside each phase's CoV
// of CPI and weight — plus a proportional-allocation ablation column.
//
// Expected shape (paper): the sample-size ratio follows N_h·σ_h, so a phase
// with high weight *and* high CPI variation (the aggregateUsingIndex reduce)
// receives disproportionately many points, while a heavy but uniform phase
// (mapPartitionsWithIndex-style sequential conversion) receives few.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_common.h"
#include "stats/stratified.h"
#include "support/table.h"

int main(int argc, char** argv) {
  simprof::bench::ObsSession obs_session(argc, argv);
  using namespace simprof;
  core::WorkloadLab lab(bench::lab_config());
  const auto run = lab.run_batch({core::BatchItem{"cc_sp", "Google", {}}}).front();
  const auto model = core::form_phases(run.profile);

  const std::size_t n = 40;  // simulation points to distribute
  const auto strata = core::strata_of(model);
  const auto optimal = stats::optimal_allocation(strata, n);
  const auto proportional = stats::proportional_allocation(strata, n);

  // Sort phases by weight, descending (the paper's x-axis order).
  std::vector<std::size_t> order(model.k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return model.phases[a].weight > model.phases[b].weight;
  });

  std::cout << "Figure 11 — cc_sp simulation-point allocation (n = " << n
            << ", phases sorted by weight)\n";
  Table table({"phase", "weight", "cov_cpi", "sample_ratio",
               "proportional_ratio", "dominant_method"});
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t h = order[rank];
    const std::string method = core::dominant_method(model, h).value_or("-");
    table.row({"P" + std::to_string(rank),
               Table::pct(model.phases[h].weight),
               Table::num(model.phases[h].cov),
               Table::pct(static_cast<double>(optimal[h]) / n),
               Table::pct(static_cast<double>(proportional[h]) / n),
               method.substr(method.rfind('.') == std::string::npos
                                 ? 0
                                 : method.rfind('.', method.rfind('.') - 1) +
                                       1)});
  }
  table.print(std::cout);

  const double se_opt = stats::stratified_standard_error(strata, optimal);
  const double se_prop =
      stats::stratified_standard_error(strata, proportional);
  std::cout << "ablation: SE(optimal) = " << Table::num(se_opt, 4)
            << "  SE(proportional) = " << Table::num(se_prop, 4)
            << "  (optimal <= proportional expected)\n";
  return 0;
}
