// Reusable workload kernels: the memory/instruction cost shapes shared by
// both computing frameworks (scans, hash aggregation, quicksort, spills,
// merges). Functional results are computed by the engines with ordinary C++;
// these kernels emit the corresponding *simulated* instruction counts and
// cache traffic, so the cost model lives in one place.
//
// Per-element instruction budgets are deliberately coarse (they only need to
// place phase CPIs in realistic ranges); the *shape* of the traffic —
// sequential vs random, region growth, partition recursion — is what drives
// the paper's phase phenomena.
#pragma once

#include <cstdint>

#include "exec/executor_context.h"

namespace simprof::exec {

/// Instruction budgets per element/byte for the common operations.
struct KernelCosts {
  double scan_instrs_per_byte = 1.2;       ///< tokenize/deserialize scans
  double map_instrs_per_element = 26;      ///< user map-fn body
  double hash_probe_instrs = 34;           ///< hash+compare+merge per element
  double hash_touches_per_element = 1.6;   ///< cache-line touches per probe
  double sort_instrs_per_element = 7;     ///< per element per partition pass
  double serialize_instrs_per_byte = 0.9;  ///< object serialization
  double compress_instrs_per_byte = 1.7;   ///< spill compression (Hadoop opt)
  double merge_instrs_per_element = 18;    ///< k-way merge step
};

/// Global default used by the engines; a workload can override per run.
const KernelCosts& default_kernel_costs();

/// Sequential scan of `bytes` (input split read, shuffle block read, …).
void scan_region(ExecutorContext& ctx, std::uint64_t base,
                 std::uint64_t bytes, double instrs_per_byte,
                 bool write = false);

/// Hash-map aggregation of `elements` into a table that has grown to
/// `occupied_bytes` within a region at `base` (combiners, reducers,
/// aggregateUsingIndex). Probes are Zipf-skewed when `hot_fraction_skew` > 0
/// (hot keys hit cached lines) and uniform otherwise.
void hash_aggregate(ExecutorContext& ctx, std::uint64_t base,
                    std::uint64_t occupied_bytes, std::uint64_t elements,
                    double hot_fraction_skew, const KernelCosts& costs);

/// Deferred-charging building blocks for pipeline batching (exec/pipeline.h):
/// the instruction budget and probe stream hash_aggregate would charge.
std::uint64_t hash_aggregate_instrs(std::uint64_t elements,
                                    const KernelCosts& costs);
hw::AccessStream hash_aggregate_stream(
    Rng& rng, std::uint64_t base, std::uint64_t occupied_bytes,
    std::uint64_t elements, double hot_fraction_skew,
    const KernelCosts& costs);

/// Quicksort cache behaviour over `elements`·`element_bytes` at `base`:
/// recursive partition passes touch progressively smaller regions, so deep
/// partitions become cache-resident — the paper's canonical source of
/// intra-phase CPI variation. Splits are randomized via ctx.rng().
/// `cutoff_elements` switches to an insertion-sort-style resident pass.
void quicksort_traffic(ExecutorContext& ctx, std::uint64_t base,
                       std::uint64_t elements, std::uint32_t element_bytes,
                       const KernelCosts& costs,
                       std::uint64_t cutoff_elements = 4096);

/// Serialize-and-write `bytes` to a spill/shuffle/HDFS file at `base`
/// (sequential writes). `compressed` adds the compression cpu cost.
void write_stream(ExecutorContext& ctx, std::uint64_t base,
                  std::uint64_t bytes, bool compressed,
                  const KernelCosts& costs);

/// k-way merge of `runs` sorted runs totalling `elements` over a region:
/// sequential reads of each run interleaved (strided view) + heap work.
void merge_runs(ExecutorContext& ctx, std::uint64_t base,
                std::uint64_t total_bytes, std::uint64_t elements,
                std::uint32_t runs, const KernelCosts& costs);

}  // namespace simprof::exec
