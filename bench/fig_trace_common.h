// Shared trace emitter for Figures 14 and 15: per-unit CPI with phase ids,
// units sorted by phase id (the paper's x-axis), plus a per-phase summary
// with each phase's dominant non-framework method.
#pragma once

#include <algorithm>
#include <iostream>
#include <numeric>
#include <string>

#include "bench_common.h"
#include "support/table.h"

namespace simprof::bench {

inline void print_phase_trace(const std::string& config_name,
                              const std::string& figure) {
  core::WorkloadLab lab(lab_config());
  const auto run = lab.run_batch({core::BatchItem{config_name, "Google", {}}}).front();
  const auto& prof = run.profile;
  const auto model = core::form_phases(prof);

  std::cout << figure << " — " << config_name
            << " CPI trace (units sorted by phase id)\n"
            << "profile: " << (run.from_cache ? "cache hit" : "fresh run")
            << " (" << run.cache_path << ")\n";

  // Per-phase summary.
  Table summary({"phase", "units", "weight", "mean_cpi", "cov_cpi",
                 "type", "dominant_method"});
  for (std::size_t h = 0; h < model.k; ++h) {
    summary.row({std::to_string(h), std::to_string(model.phases[h].count),
                 Table::pct(model.phases[h].weight),
                 Table::num(model.phases[h].mean_cpi),
                 Table::num(model.phases[h].cov),
                 std::string(jvm::to_string(model.phase_types[h])),
                 core::dominant_method(model, h).value_or("-")});
  }
  summary.print_aligned(std::cout);

  // The series itself: units sorted by (phase, original unit id).
  std::vector<std::size_t> order(prof.num_units());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return model.labels[a] != model.labels[b]
               ? model.labels[a] < model.labels[b]
               : a < b;
  });
  std::cout << "-- csv --\nindex,unit_id,cpi,phase\n";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t u = order[i];
    std::cout << i << ',' << prof.units[u].unit_id << ','
              << Table::num(prof.units[u].cpi()) << ',' << model.labels[u]
              << '\n';
  }
}

}  // namespace simprof::bench
