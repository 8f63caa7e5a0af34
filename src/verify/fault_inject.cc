#include "verify/fault_inject.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/lab.h"
#include "core/profile.h"
#include "obs/obs.h"
#include "support/rng.h"
#include "support/serialize.h"
#include "verify/golden_checkpoint.h"
#include "verify/synthetic.h"

namespace simprof::verify {
namespace {

std::string serialize(const core::ThreadProfile& p) {
  std::ostringstream out(std::ios::binary);
  p.save(out);
  return out.str();
}

enum class Mutation : std::uint64_t {
  kTruncate,
  kBitFlip,
  kLengthInflate,
  kHeaderSkew,
  kSplice,
  kGarbage,
  kCount,
};

/// Applies one seeded mutation in place; returns the mutation picked.
Mutation mutate(std::string& bytes, Rng& rng) {
  const auto kind = static_cast<Mutation>(
      rng.next_below(static_cast<std::uint64_t>(Mutation::kCount)));
  const std::size_t size = bytes.size();
  switch (kind) {
    case Mutation::kTruncate:
      bytes.resize(rng.next_below(size));
      break;
    case Mutation::kBitFlip: {
      const std::size_t flips = 1 + rng.next_below(8);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at = rng.next_below(size);
        bytes[at] = static_cast<char>(
            static_cast<unsigned char>(bytes[at]) ^ (1u << rng.next_below(8)));
      }
      break;
    }
    case Mutation::kLengthInflate: {
      // Overwrite 8 aligned-anywhere bytes with a huge value — whichever
      // u64 field lands there (often a length prefix) now claims gigabytes.
      if (size < 8) break;
      const std::size_t at = rng.next_below(size - 7);
      const std::uint64_t huge =
          (1ULL << (31 + rng.next_below(32))) | rng.next_below(1 << 20);
      std::memcpy(bytes.data() + at, &huge, sizeof huge);
      break;
    }
    case Mutation::kHeaderSkew: {
      // Random magic and/or version word.
      const std::size_t word = rng.next_below(2) * 4;
      const auto v = static_cast<std::uint32_t>(rng.next_u64());
      if (size >= word + 4) std::memcpy(bytes.data() + word, &v, sizeof v);
      break;
    }
    case Mutation::kSplice: {
      const std::size_t at = rng.next_below(size + 1);
      const std::size_t len = 1 + rng.next_below(64);
      std::string extra(len, '\0');
      for (auto& c : extra) c = static_cast<char>(rng.next_below(256));
      bytes.insert(at, extra);
      break;
    }
    case Mutation::kGarbage: {
      const std::size_t at = rng.next_below(size);
      const std::size_t len = 1 + rng.next_below(std::min<std::size_t>(
                                      32, size - at));
      for (std::size_t j = 0; j < len; ++j) {
        bytes[at + j] = static_cast<char>(rng.next_below(256));
      }
      break;
    }
    case Mutation::kCount:
      break;  // unreachable
  }
  return kind;
}

enum Verdict : std::uint64_t {
  kDecoded = 0,        // corruption was benign — archive still parsed
  kTypedReject = 1,    // SerializeError, the contract's happy rejection
  kContractReject = 2, // other ContractViolation (typed, but flags a gap)
  kUntyped = 3,        // anything else escaping load() — a verify failure
};

}  // namespace

VerifyReport verify_archive_robustness(const FaultConfig& cfg) {
  static obs::Counter& injected =
      obs::metrics().counter("verify.faults_injected");

  // Base corpus: the golden fixture plus a spread of randomized archives.
  std::vector<std::string> bases;
  bases.push_back(serialize(golden_profile()));
  for (std::uint64_t b = 0; b < 4; ++b) {
    Rng rng = Rng::stream(cfg.seed, 0xB000 + b);
    bases.push_back(serialize(random_profile(rng)));
  }

  VerifyReport report;
  report.fingerprint = kFnvOffset;
  std::size_t counts[4] = {0, 0, 0, 0};
  std::size_t not_idempotent = 0;
  std::string first_untyped;
  for (std::size_t i = 0; i < cfg.cases; ++i) {
    Rng rng = Rng::stream(cfg.seed, i);
    std::string bytes = bases[rng.next_below(bases.size())];
    const std::size_t rounds = 1 + rng.next_below(3);
    for (std::size_t r = 0; r < rounds && !bytes.empty(); ++r) {
      mutate(bytes, rng);
    }
    injected.increment();

    Verdict v = kUntyped;
    try {
      std::istringstream in(bytes, std::ios::binary);
      const core::ThreadProfile p = core::ThreadProfile::load(in);
      v = kDecoded;
      // A decoded archive must re-serialize to a stable fixed point:
      // save(load(x)) must itself decode to the same bytes.
      const std::string once = serialize(p);
      std::istringstream in2(once, std::ios::binary);
      if (serialize(core::ThreadProfile::load(in2)) != once) ++not_idempotent;
    } catch (const SerializeError&) {
      v = kTypedReject;
    } catch (const ContractViolation&) {
      v = kContractReject;
    } catch (const std::exception& e) {
      v = kUntyped;
      if (first_untyped.empty()) first_untyped = e.what();
    }
    ++counts[v];
    report.fingerprint = fnv1a(report.fingerprint, (i << 2) | v);
    ++report.cases_run;
  }

  const auto fmt = [&] {
    return std::to_string(counts[kDecoded]) + " benign decodes, " +
           std::to_string(counts[kTypedReject]) + " SerializeError, " +
           std::to_string(counts[kContractReject]) + " other contract, " +
           std::to_string(counts[kUntyped]) + " untyped over " +
           std::to_string(cfg.cases) + " cases";
  };
  report.add("fault.typed_errors_only", counts[kUntyped] == 0,
             counts[kUntyped] == 0 ? fmt()
                                   : fmt() + "; first: " + first_untyped);
  report.add("fault.no_contract_leaks", counts[kContractReject] == 0, fmt());
  report.add("fault.injection_effective",
             counts[kTypedReject] > cfg.cases / 20, fmt());
  report.add("fault.reload_idempotent", not_idempotent == 0,
             std::to_string(not_idempotent) + " non-idempotent decodes");
  return report;
}

VerifyReport verify_lab_cache_recovery(std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("simprof_verify_" + std::to_string(::getpid()) + "_" +
       std::to_string(seed));
  fs::remove_all(dir);

  core::LabConfig cfg;
  cfg.scale = 0.05;
  cfg.graph_scale_override = 12;
  cfg.cache_dir = dir.string();
  core::WorkloadLab lab(cfg);

  VerifyReport report;
  report.fingerprint = kFnvOffset;
  const obs::Counter& corrupt_ctr =
      obs::metrics().counter("lab.cache_corrupt");
  const std::uint64_t corrupt_before = corrupt_ctr.value();

  const auto seeded = lab.run("grep_sp");
  report.add("cache.populates", !seeded.from_cache && !seeded.cache_path.empty(),
             "first run wrote " + seeded.cache_path);
  const std::string path = seeded.cache_path;
  report.add("cache.hits_when_intact", lab.run("grep_sp").from_cache);
  report.add("cache.no_stale_tmp", !fs::exists(path + ".tmp"),
             "atomic publish leaves no .tmp behind");

  const auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const auto write_file = [](const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  const std::string good = read_file(path);
  struct Variant {
    const char* name;
    std::string bytes;
  };
  std::string flipped = good;
  flipped[flipped.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(flipped[flipped.size() / 2]) ^ 0x40);
  std::string skewed = good;
  skewed[4] = static_cast<char>(skewed[4] + 1);  // version word
  std::string inflated = good;
  const std::uint64_t huge = 1ULL << 40;  // method-count prefix at offset 8
  std::memcpy(inflated.data() + 8, &huge, sizeof huge);
  const std::vector<Variant> variants = {
      {"truncated", good.substr(0, good.size() / 2)},
      {"empty", std::string()},
      {"bit_flipped", flipped},
      {"version_skew", skewed},
      {"length_inflated", inflated},
  };

  for (const auto& v : variants) {
    write_file(path, v.bytes);
    const auto run = lab.run("grep_sp");
    const bool miss_then_regenerate =
        !run.from_cache && run.profile.num_units() == seeded.profile.num_units();
    const bool hits_again = lab.run("grep_sp").from_cache;
    report.add(std::string("cache.recovers_from_") + v.name,
               miss_then_regenerate && hits_again);
    report.fingerprint =
        fnv1a(report.fingerprint, miss_then_regenerate && hits_again);
    ++report.cases_run;
  }
  const std::uint64_t corrupt_delta = corrupt_ctr.value() - corrupt_before;
  report.add("cache.corrupt_counter_counts", corrupt_delta == variants.size(),
             "lab.cache_corrupt +" + std::to_string(corrupt_delta) + " over " +
                 std::to_string(variants.size()) + " corruptions");

  fs::remove_all(dir);
  return report;
}

namespace {

/// Restore `bytes` into a fresh fixture twin and return the twin's re-saved
/// archive — equal to the pristine bytes iff the restore was bit-exact.
/// Throws whatever load_checkpoint throws.
std::string load_into_twin(std::uint64_t variant, const std::string& bytes) {
  const auto twin = checkpoint_fixture(variant);
  std::istringstream in(bytes, std::ios::binary);
  core::load_checkpoint(in, *twin, kCheckpointFixtureKey,
                        kCheckpointFixtureUnit);
  std::ostringstream out(std::ios::binary);
  core::save_checkpoint(out, *twin, kCheckpointFixtureKey,
                        kCheckpointFixtureUnit);
  return out.str();
}

}  // namespace

VerifyReport verify_checkpoint_robustness(const FaultConfig& cfg) {
  static obs::Counter& injected =
      obs::metrics().counter("verify.ckpt_faults_injected");

  VerifyReport report;
  report.fingerprint = kFnvOffset;

  // Golden checkpoint tripwire: the frozen SCKP v4 bytes must equal a fresh
  // fixture save, decode without error, and restore bit-identical state.
  {
    const std::string golden(
        reinterpret_cast<const char*>(kGoldenCheckpointV4),
        sizeof kGoldenCheckpointV4);
    const std::string fresh = fixture_checkpoint_bytes(0);
    bool decodes = false;
    bool stable = false;
    std::string detail;
    try {
      const std::string resaved = load_into_twin(0, golden);
      decodes = true;
      stable = fresh == golden && resaved == golden;
      detail = std::to_string(golden.size()) + " frozen bytes";
    } catch (const std::exception& e) {
      detail = e.what();
    }
    report.add("ckpt.golden_archive_decodes", decodes, detail);
    report.add("ckpt.golden_archive_stable", stable,
               "format drift tripwire — bump kCheckpointVersion and "
               "regenerate golden_checkpoint.h on any intentional change");
  }

  // Corpus: fixture variants with different registries, cache warmth and
  // counter values, so corruption lands on every payload section.
  std::vector<std::pair<std::uint64_t, std::string>> bases;
  for (std::uint64_t v = 0; v < 4; ++v) {
    bases.emplace_back(v, fixture_checkpoint_bytes(v));
  }

  std::size_t counts[4] = {0, 0, 0, 0};
  std::size_t silent = 0;
  std::string first_untyped;
  for (std::size_t i = 0; i < cfg.cases; ++i) {
    Rng rng = Rng::stream(cfg.seed, 0xCC00 + i);
    const auto& [variant, pristine] = bases[rng.next_below(bases.size())];
    std::string bytes = pristine;
    const std::size_t rounds = 1 + rng.next_below(3);
    for (std::size_t r = 0; r < rounds && !bytes.empty(); ++r) {
      mutate(bytes, rng);
    }
    injected.increment();

    Verdict v = kUntyped;
    try {
      const std::string resaved = load_into_twin(variant, bytes);
      v = kDecoded;
      // A decode that does not reproduce the pristine state is the one
      // outcome the format must rule out: a silently wrong restore would
      // surface as a wrong PMU number downstream.
      if (resaved != pristine) ++silent;
    } catch (const SerializeError&) {
      v = kTypedReject;
    } catch (const ContractViolation&) {
      v = kContractReject;
    } catch (const std::exception& e) {
      v = kUntyped;
      if (first_untyped.empty()) first_untyped = e.what();
    }
    ++counts[v];
    report.fingerprint = fnv1a(report.fingerprint, (i << 2) | v);
    ++report.cases_run;
  }

  const auto fmt = [&] {
    return std::to_string(counts[kDecoded]) + " benign decodes, " +
           std::to_string(counts[kTypedReject]) + " SerializeError, " +
           std::to_string(counts[kContractReject]) + " other contract, " +
           std::to_string(counts[kUntyped]) + " untyped over " +
           std::to_string(cfg.cases) + " cases";
  };
  report.add("ckpt_fault.typed_errors_only", counts[kUntyped] == 0,
             counts[kUntyped] == 0 ? fmt()
                                   : fmt() + "; first: " + first_untyped);
  report.add("ckpt_fault.no_contract_leaks", counts[kContractReject] == 0,
             fmt());
  report.add("ckpt_fault.no_silent_corruption", silent == 0,
             std::to_string(silent) + " decodes restored divergent state");
  report.add("ckpt_fault.injection_effective",
             counts[kTypedReject] > cfg.cases / 20, fmt());
  return report;
}

VerifyReport verify_checkpoint_recovery(std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("simprof_ckpt_verify_" + std::to_string(::getpid()) + "_" +
       std::to_string(seed));
  fs::remove_all(dir);

  core::LabConfig cfg;
  cfg.scale = 0.05;
  cfg.graph_scale_override = 12;
  cfg.cache_dir = (dir / "cache").string();
  cfg.checkpoint_dir = (dir / "ckpt").string();
  cfg.checkpoint_stride = 2;
  core::WorkloadLab lab(cfg);

  VerifyReport report;
  report.fingerprint = kFnvOffset;
  const obs::Counter& fallback_ctr = obs::metrics().counter("ckpt.fallback");
  const std::uint64_t fallback_before = fallback_ctr.value();

  const auto seeded = lab.run("grep_sp");
  const auto& oracle_units = seeded.profile.units;
  std::vector<std::uint64_t> targets = {1, oracle_units.size() / 2,
                                        oracle_units.size() - 1};

  const auto same_counters = [](const hw::PmuCounters& a,
                                const hw::PmuCounters& b) {
    return a.instructions == b.instructions && a.cycles == b.cycles &&
           a.line_touches == b.line_touches && a.l1_misses == b.l1_misses &&
           a.l2_misses == b.l2_misses && a.llc_misses == b.llc_misses &&
           a.migrations == b.migrations;
  };
  const auto records_match = [&](const std::vector<core::UnitRecord>& recs) {
    if (recs.size() != targets.size()) return false;
    for (const auto& rec : recs) {
      if (rec.unit_id >= oracle_units.size()) return false;
      const core::UnitRecord& want = oracle_units[rec.unit_id];
      if (want.unit_id != rec.unit_id ||
          !same_counters(rec.counters, want.counters) ||
          rec.methods != want.methods || rec.counts != want.counts) {
        return false;
      }
    }
    return true;
  };

  const auto m0 = lab.measure_units("grep_sp", "Google", targets);
  report.add("ckpt.fast_path_restores", m0.used_checkpoints && !m0.fallback,
             std::to_string(m0.checkpoints_restored) + " restores, " +
                 std::to_string(m0.fast_forwarded_instrs) + " instrs skipped");
  report.add("ckpt.fast_path_exact", records_match(m0.records),
             "restored-unit records equal the oracle pass bit for bit");

  // Archives the fast path restores from, with pristine copies to put back
  // between cases.
  const std::string ckdir =
      lab.checkpoint_dir_for("grep_sp", "Google", cfg.seed);
  std::vector<std::pair<std::string, std::string>> pristine;  // path, bytes
  for (const auto& e : fs::directory_iterator(ckdir)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    pristine.emplace_back(e.path().string(), buf.str());
  }
  report.add("ckpt.archives_published", !pristine.empty(),
             std::to_string(pristine.size()) + " archives in " + ckdir);

  struct Corruption {
    const char* name;
    std::string (*apply)(const std::string&);
  };
  const std::vector<Corruption> variants = {
      {"truncated",
       [](const std::string& b) { return b.substr(0, b.size() / 2); }},
      {"bit_flipped",
       [](const std::string& b) {
         std::string out = b;
         out[out.size() / 2] = static_cast<char>(
             static_cast<unsigned char>(out[out.size() / 2]) ^ 0x10);
         return out;
       }},
      {"version_skew",
       [](const std::string& b) {
         std::string out = b;
         if (out.size() > 4) out[4] = static_cast<char>(out[4] + 1);
         return out;
       }},
      {"empty", [](const std::string&) { return std::string(); }},
  };
  const auto write_file = [](const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  for (const auto& v : variants) {
    for (const auto& [path, bytes] : pristine) {
      write_file(path, v.apply(bytes));
    }
    const auto m = lab.measure_units("grep_sp", "Google", targets);
    const bool recovered = m.fallback && records_match(m.records);
    report.add(std::string("ckpt.recovers_from_") + v.name, recovered,
               "fallback re-execution, records still exact");
    report.fingerprint = fnv1a(report.fingerprint, recovered);
    ++report.cases_run;
    for (const auto& [path, bytes] : pristine) write_file(path, bytes);
  }
  const std::uint64_t fallback_delta =
      fallback_ctr.value() - fallback_before;
  report.add("ckpt.fallback_counter_counts",
             fallback_delta == variants.size(),
             "ckpt.fallback +" + std::to_string(fallback_delta) + " over " +
                 std::to_string(variants.size()) + " corruptions");

  // Pristine archives back in place: the fast path works again, no fallback.
  const auto m1 = lab.measure_units("grep_sp", "Google", targets);
  report.add("ckpt.fast_path_recovers",
             m1.used_checkpoints && !m1.fallback && records_match(m1.records));

  fs::remove_all(dir);
  return report;
}

}  // namespace simprof::verify
