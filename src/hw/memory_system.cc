#include "hw/memory_system.h"

#include <cmath>

namespace simprof::hw {

PmuCounters PmuCounters::delta_since(const PmuCounters& earlier) const {
  PmuCounters d;
  d.instructions = instructions - earlier.instructions;
  d.cycles = cycles - earlier.cycles;
  d.line_touches = line_touches - earlier.line_touches;
  d.l1_misses = l1_misses - earlier.l1_misses;
  d.l2_misses = l2_misses - earlier.l2_misses;
  d.llc_misses = llc_misses - earlier.llc_misses;
  d.migrations = migrations - earlier.migrations;
  return d;
}

MemorySystem::MemorySystem(const MemorySystemConfig& cfg)
    : cfg_(cfg), llc_(cfg.llc) {
  SIMPROF_EXPECTS(cfg.num_cores > 0, "need at least one core");
  l1_.reserve(cfg.num_cores);
  l2_.reserve(cfg.num_cores);
  for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
    l1_.emplace_back(cfg.l1);
    l2_.emplace_back(cfg.l2);
  }
}

void MemorySystem::migrate(std::uint32_t core) {
  SIMPROF_EXPECTS(core < l1_.size(), "core out of range");
  l1_[core].flush();
  l2_[core].flush();
}

void MemorySystem::set_llc_pressure(std::uint32_t busy) {
  // Effective capacity shrinks with concurrency, but sub-linearly: co-running
  // threads overlap in time and share some footprint, so a strict 1/p
  // partition overstates the interference swing between full and straggler
  // waves. ways/sqrt(p) tracks measured shared-LLC behaviour far better.
  const double b = busy == 0 ? 1.0 : static_cast<double>(busy);
  const auto eff = static_cast<std::uint32_t>(
      static_cast<double>(cfg_.llc.ways) / std::sqrt(b));
  llc_.set_effective_ways(eff == 0 ? 1 : eff);
}

}  // namespace simprof::hw
