// Thread profiling (Section III-A): the sampling manager subscribes to the
// executor substrate's profiling hooks, accumulates call-stack snapshots per
// sampling unit and attaches the unit's hardware-counter deltas, producing a
// ThreadProfile — the framework's central data product.
//
// A ThreadProfile is self-contained (it carries its own method table), so it
// serializes to disk and can be analyzed without the cluster that produced
// it — exactly how the real tool's frontend/backend split works.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/executor_context.h"
#include "hw/memory_system.h"
#include "jvm/method.h"

namespace simprof {
class BinaryWriter;
class BinaryReader;
}  // namespace simprof

namespace simprof::core {

/// One sampling unit: a fixed-size instruction interval of the profiled
/// executor thread (paper: 100M instructions; here 1M virtual, scaled 1/100).
struct UnitRecord {
  std::uint64_t unit_id = 0;
  hw::PmuCounters counters;              ///< deltas for this unit
  hw::MavBlock mav;                      ///< memory-access vector (hw/mav.h)
  std::vector<jvm::MethodId> methods;    ///< methods seen in snapshots …
  std::vector<std::uint32_t> counts;     ///< … and their frame frequencies

  double cpi() const { return counters.cpi(); }
  double ipc() const { return counters.ipc(); }
};

/// The seven PMU counters, field by field, as both profiles and checkpoint
/// archives store them.
void write_pmu_counters(BinaryWriter& w, const hw::PmuCounters& c);
hw::PmuCounters read_pmu_counters(BinaryReader& r);

/// Frame frequencies of one unit's call-stack snapshots, by method id.
using MethodHistogram = std::unordered_map<jvm::MethodId, std::uint32_t>;

/// Build the record of one completed unit from its counter deltas, its MAV
/// and its snapshot histogram. Methods come out sorted by id: the one
/// deterministic order of profiles and measured records alike.
UnitRecord make_unit_record(std::uint64_t unit_id,
                            const hw::PmuCounters& delta,
                            const hw::MavBlock& mav,
                            const MethodHistogram& histogram);

/// The profile of one executor thread across a whole job.
class ThreadProfile {
 public:
  std::vector<UnitRecord> units;
  std::vector<std::string> method_names;   ///< indexed by MethodId
  std::vector<jvm::OpKind> method_kinds;

  std::size_t num_units() const { return units.size(); }
  std::size_t num_methods() const { return method_names.size(); }

  /// Per-unit CPIs in unit order.
  std::vector<double> cpis() const;

  /// The paper's oracle: the average CPI over all sampling units.
  double oracle_cpi() const;

  /// Total virtual cycles / instructions of the profiled thread.
  std::uint64_t total_cycles() const;
  std::uint64_t total_instructions() const;

  void save(std::ostream& out) const;
  static ThreadProfile load(std::istream& in);
};

/// exec::ProfilingHook implementation: collects snapshots + counter deltas.
class SamplingManager final : public exec::ProfilingHook {
 public:
  explicit SamplingManager(const jvm::MethodRegistry& registry)
      : registry_(&registry) {}

  void on_snapshot(std::span<const jvm::MethodId> stack) override;
  void on_unit_boundary(const hw::PmuCounters& delta,
                        const hw::MavBlock& mav) override;

  std::size_t units_collected() const { return units_.size(); }
  std::uint64_t snapshots_collected() const { return snapshots_; }

  /// Finalize into a self-contained profile (copies the method table).
  ThreadProfile take_profile();

 private:
  const jvm::MethodRegistry* registry_;
  MethodHistogram current_histogram_;
  std::vector<UnitRecord> units_;
  std::uint64_t snapshots_ = 0;
};

}  // namespace simprof::core
