#include "core/profile.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "obs/metrics.h"
#include "support/assert.h"
#include "support/serialize.h"

namespace simprof::core {

namespace {
constexpr std::uint32_t kMagic = 0x53505246;  // "SPRF"
// Version 4: each unit carries its memory-access vector (hw::MavBlock,
// kMavDim u64 counts) between the PMU counters and the method histogram.
constexpr std::uint32_t kVersion = 4;
}  // namespace

void write_pmu_counters(BinaryWriter& w, const hw::PmuCounters& c) {
  w.u64(c.instructions);
  w.u64(c.cycles);
  w.u64(c.line_touches);
  w.u64(c.l1_misses);
  w.u64(c.l2_misses);
  w.u64(c.llc_misses);
  w.u64(c.migrations);
}

hw::PmuCounters read_pmu_counters(BinaryReader& r) {
  hw::PmuCounters c;
  c.instructions = r.u64();
  c.cycles = r.u64();
  c.line_touches = r.u64();
  c.l1_misses = r.u64();
  c.l2_misses = r.u64();
  c.llc_misses = r.u64();
  c.migrations = r.u64();
  return c;
}

std::vector<double> ThreadProfile::cpis() const {
  std::vector<double> out;
  out.reserve(units.size());
  for (const auto& u : units) out.push_back(u.cpi());
  return out;
}

double ThreadProfile::oracle_cpi() const {
  if (units.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& u : units) acc += u.cpi();
  return acc / static_cast<double>(units.size());
}

std::uint64_t ThreadProfile::total_cycles() const {
  std::uint64_t acc = 0;
  for (const auto& u : units) acc += u.counters.cycles;
  return acc;
}

std::uint64_t ThreadProfile::total_instructions() const {
  std::uint64_t acc = 0;
  for (const auto& u : units) acc += u.counters.instructions;
  return acc;
}

void ThreadProfile::save(std::ostream& out) const {
  BinaryWriter w(out);
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(method_names.size());
  for (std::size_t i = 0; i < method_names.size(); ++i) {
    w.str(method_names[i]);
    w.u8(static_cast<std::uint8_t>(method_kinds[i]));
  }
  w.u64(units.size());
  for (const auto& u : units) {
    w.u64(u.unit_id);
    write_pmu_counters(w, u.counters);
    for (const std::uint64_t c : u.mav.counts) w.u64(c);
    w.vec_u32(u.methods);
    w.vec_u32(u.counts);
  }
}

ThreadProfile ThreadProfile::load(std::istream& in) {
  BinaryReader r(in);
  if (r.u32() != kMagic) {
    throw SerializeError("not a SimProf profile (bad magic)");
  }
  if (const auto v = r.u32(); v != kVersion) {
    throw SerializeError("unsupported profile version " + std::to_string(v) +
                         " (expected " + std::to_string(kVersion) + ")");
  }
  ThreadProfile p;
  // Each method entry is ≥ 9 bytes (u64 name length + kind byte); each unit
  // is ≥ 280 bytes (8 id + 56 counters + 8·kMavDim MAV + two vector length
  // prefixes). Bounding the counts up front keeps a corrupt prefix from
  // sizing a reserve.
  const auto methods = r.u64();
  if (methods > r.remaining() / 9) {
    throw SerializeError("corrupt archive: method count exceeds file size");
  }
  p.method_names.reserve(methods);
  p.method_kinds.reserve(methods);
  for (std::uint64_t i = 0; i < methods; ++i) {
    p.method_names.push_back(r.str());
    const std::uint8_t kind = r.u8();
    if (kind >= jvm::kNumOpKinds) {
      throw SerializeError("corrupt archive: invalid method kind byte");
    }
    p.method_kinds.push_back(static_cast<jvm::OpKind>(kind));
  }
  const auto units = r.u64();
  if (units > r.remaining() / 280) {
    throw SerializeError("corrupt archive: unit count exceeds file size");
  }
  p.units.reserve(units);
  for (std::uint64_t i = 0; i < units; ++i) {
    UnitRecord u;
    u.unit_id = r.u64();
    u.counters = read_pmu_counters(r);
    for (std::uint64_t& c : u.mav.counts) c = r.u64();
    u.methods = r.vec_u32();
    u.counts = r.vec_u32();
    if (u.methods.size() != u.counts.size()) {
      throw SerializeError("corrupt archive: unit method/count mismatch");
    }
    // Method ids are written sorted and must index the method table —
    // downstream feature extraction indexes columns by these ids.
    for (std::size_t m = 0; m < u.methods.size(); ++m) {
      if (u.methods[m] >= methods ||
          (m > 0 && u.methods[m] <= u.methods[m - 1])) {
        throw SerializeError("corrupt archive: invalid method id in unit");
      }
    }
    p.units.push_back(std::move(u));
  }
  return p;
}

UnitRecord make_unit_record(std::uint64_t unit_id,
                            const hw::PmuCounters& delta,
                            const hw::MavBlock& mav,
                            const MethodHistogram& histogram) {
  UnitRecord u;
  u.unit_id = unit_id;
  u.counters = delta;
  u.mav = mav;
  std::vector<std::pair<jvm::MethodId, std::uint32_t>> entries(
      histogram.begin(), histogram.end());
  std::sort(entries.begin(), entries.end());
  u.methods.reserve(entries.size());
  u.counts.reserve(entries.size());
  for (const auto& [m, c] : entries) {
    u.methods.push_back(m);
    u.counts.push_back(c);
  }
  return u;
}

void SamplingManager::on_snapshot(std::span<const jvm::MethodId> stack) {
  ++snapshots_;
  for (jvm::MethodId m : stack) ++current_histogram_[m];
}

void SamplingManager::on_unit_boundary(const hw::PmuCounters& delta,
                                       const hw::MavBlock& mav) {
  // Progress feed for the heartbeat (units/s); observation only.
  static obs::Counter& units_done = obs::metrics().counter("progress.units");
  units_done.increment();
  units_.push_back(
      make_unit_record(units_.size(), delta, mav, current_histogram_));
  current_histogram_.clear();
}

ThreadProfile SamplingManager::take_profile() {
  ThreadProfile p;
  p.units = std::move(units_);
  units_ = {};
  current_histogram_.clear();
  const std::size_t n = registry_->size();
  p.method_names.reserve(n);
  p.method_kinds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<jvm::MethodId>(i);
    p.method_names.push_back(registry_->name(id));
    p.method_kinds.push_back(registry_->kind(id));
  }
  return p;
}

}  // namespace simprof::core
