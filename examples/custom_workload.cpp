// Bring-your-own workload: SimProf is framework-agnostic — anything that
// pushes call frames and executes work on a simulated cluster can be
// profiled and sampled. This example builds a small custom analytics job
// directly on the execution substrate (no MiniSpark/MiniHadoop), with three
// deliberately different phases, and shows SimProf recovering them.
//
//   $ ./build/examples/custom_workload
#include <iostream>

#include "core/phase.h"
#include "core/profile.h"
#include "core/sampling.h"
#include "exec/cluster.h"
#include "exec/kernels.h"
#include "support/table.h"

int main() {
  using namespace simprof;

  exec::ClusterConfig cfg;
  cfg.memory.num_cores = 2;
  exec::Cluster cluster(cfg);
  core::SamplingManager profiler(cluster.methods());
  cluster.set_profiling_hook(&profiler);

  // Register this application's methods with operation kinds.
  auto& reg = cluster.methods();
  const auto m_main = reg.intern("etl.Pipeline.run", jvm::OpKind::kFramework);
  const auto m_parse = reg.intern("etl.CsvParser.parse", jvm::OpKind::kMap);
  const auto m_join = reg.intern("etl.HashJoin.probe", jvm::OpKind::kReduce);
  const auto m_sort = reg.intern("etl.TimsortRuns.sort", jvm::OpKind::kSort);

  // Data regions: an input file, a build-side hash table, a sort buffer.
  auto& space = cluster.address_space();
  const auto input = space.allocate(48ull << 20);
  const auto hash_table = space.allocate(24ull << 20);
  const auto sort_buffer = space.allocate(12ull << 20);

  // Three stages with distinct memory behaviour, run as six cluster tasks.
  cluster.run_stage("etl", 6, [&](std::size_t, exec::ExecutorContext& ctx) {
    jvm::MethodScope main_scope(ctx.stack(), m_main);
    {  // parse: streaming scan, low CPI
      jvm::MethodScope s(ctx.stack(), m_parse);
      exec::scan_region(ctx, input, 8ull << 20, 1.4);
    }
    {  // join probes: random accesses, high CPI
      jvm::MethodScope s(ctx.stack(), m_join);
      exec::hash_aggregate(ctx, hash_table, 24ull << 20, 400'000, 0.3,
                           exec::default_kernel_costs());
    }
    {  // sort: recursive partitions, high CPI *variance*
      jvm::MethodScope s(ctx.stack(), m_sort);
      exec::quicksort_traffic(ctx, sort_buffer, 400'000, 8,
                              exec::default_kernel_costs());
    }
  });
  cluster.finish();

  core::ThreadProfile profile = profiler.take_profile();
  const core::PhaseModel model = core::form_phases(profile);

  std::cout << "custom workload: " << profile.num_units()
            << " sampling units → " << model.k << " phases\n";
  Table t({"phase", "weight", "mean_cpi", "cov", "type"});
  for (std::size_t h = 0; h < model.k; ++h) {
    t.row({std::to_string(h), Table::pct(model.phases[h].weight),
           Table::num(model.phases[h].mean_cpi),
           Table::num(model.phases[h].cov),
           std::string(jvm::to_string(model.phase_types[h]))});
  }
  t.print_aligned(std::cout);

  const auto plan = core::simprof_sample(profile, model, 40, 3);
  std::cout << "\n40-point SimProf estimate: "
            << Table::num(plan.estimated_cpi, 3) << " vs oracle "
            << Table::num(profile.oracle_cpi(), 3) << " (error "
            << Table::pct(core::relative_error(plan, profile), 2) << ")\n";
  return 0;
}
