#include "exec/kernels.h"

#include <algorithm>

#include "hw/access_stream.h"
#include "support/assert.h"

namespace simprof::exec {

const KernelCosts& default_kernel_costs() {
  static const KernelCosts costs{};
  return costs;
}

void scan_region(ExecutorContext& ctx, std::uint64_t base, std::uint64_t bytes,
                 double instrs_per_byte, bool write) {
  if (bytes == 0) return;
  auto stream = hw::AccessStream::strided(base, bytes, 1, write);
  ctx.execute(static_cast<std::uint64_t>(instrs_per_byte *
                                         static_cast<double>(bytes)),
              stream);
}

std::uint64_t hash_aggregate_instrs(std::uint64_t elements,
                                    const KernelCosts& costs) {
  return static_cast<std::uint64_t>(costs.hash_probe_instrs *
                                    static_cast<double>(elements));
}

hw::AccessStream hash_aggregate_stream(
    Rng& rng, std::uint64_t base, std::uint64_t occupied_bytes,
    std::uint64_t elements, double hot_fraction_skew,
    const KernelCosts& costs) {
  const auto touches = static_cast<std::uint64_t>(
      costs.hash_touches_per_element * static_cast<double>(elements));
  const std::uint64_t bytes = std::max<std::uint64_t>(occupied_bytes, 64);
  if (hot_fraction_skew > 0.0) {
    return hw::AccessStream::zipf(base, bytes, touches, hot_fraction_skew,
                                  rng, /*write=*/true);
  }
  return hw::AccessStream::random(base, bytes, touches, rng, /*write=*/false,
                                  /*write_fraction=*/0.5);
}

void hash_aggregate(ExecutorContext& ctx, std::uint64_t base,
                    std::uint64_t occupied_bytes, std::uint64_t elements,
                    double hot_fraction_skew, const KernelCosts& costs) {
  if (elements == 0) return;
  auto stream = hash_aggregate_stream(ctx.rng(), base, occupied_bytes,
                                      elements, hot_fraction_skew, costs);
  ctx.execute(hash_aggregate_instrs(elements, costs), stream);
}

void quicksort_traffic(ExecutorContext& ctx, std::uint64_t base,
                       std::uint64_t elements, std::uint32_t element_bytes,
                       const KernelCosts& costs,
                       std::uint64_t cutoff_elements) {
  if (elements == 0) return;
  SIMPROF_EXPECTS(element_bytes > 0, "element bytes must be positive");

  if (elements <= cutoff_elements) {
    // Small partition: one resident pass (insertion-sort regime).
    scan_region(ctx, base, elements * element_bytes,
                costs.sort_instrs_per_element /
                    static_cast<double>(element_bytes));
    return;
  }
  // Partition pass: stream the whole range once (reads + exchanged writes).
  {
    auto stream = hw::AccessStream::strided(base, elements * element_bytes, 1,
                                            /*write=*/true);
    ctx.execute(static_cast<std::uint64_t>(costs.sort_instrs_per_element *
                                           static_cast<double>(elements)),
                stream);
  }
  // Randomized split between 35% and 65% — real pivots are imperfect, and
  // the imbalance is what spreads partition sizes (and thus CPIs) out.
  const double frac = ctx.rng().next_double(0.35, 0.65);
  const auto left = static_cast<std::uint64_t>(
      frac * static_cast<double>(elements));
  const std::uint64_t right = elements - left;
  quicksort_traffic(ctx, base, left, element_bytes, costs, cutoff_elements);
  quicksort_traffic(ctx, base + left * element_bytes, right, element_bytes,
                    costs, cutoff_elements);
}

void write_stream(ExecutorContext& ctx, std::uint64_t base,
                  std::uint64_t bytes, bool compressed,
                  const KernelCosts& costs) {
  if (bytes == 0) return;
  const double per_byte =
      costs.serialize_instrs_per_byte +
      (compressed ? costs.compress_instrs_per_byte : 0.0);
  auto stream = hw::AccessStream::strided(base, bytes, 1, /*write=*/true);
  ctx.execute(
      static_cast<std::uint64_t>(per_byte * static_cast<double>(bytes)),
      stream);
}

void merge_runs(ExecutorContext& ctx, std::uint64_t base,
                std::uint64_t total_bytes, std::uint64_t elements,
                std::uint32_t runs, const KernelCosts& costs) {
  if (total_bytes == 0 || elements == 0) return;
  const std::uint32_t r = std::max<std::uint32_t>(runs, 1);
  // Interleaved sequential reads of r runs: modeled as a strided pass per
  // run head (prefetch-friendly but with r concurrent streams the stride
  // defeats some locality).
  const std::uint64_t stride_lines = std::max<std::uint64_t>(r / 2, 1);
  auto stream = hw::AccessStream::strided(base, total_bytes, stride_lines);
  ctx.execute(static_cast<std::uint64_t>(costs.merge_instrs_per_element *
                                         static_cast<double>(elements)),
              stream);
}

}  // namespace simprof::exec
