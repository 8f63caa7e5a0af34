// Seeded fault injection for the serialization and lab-cache layers.
//
// The archive harness corrupts valid BinaryWriter archives — truncation, bit
// flips, length-prefix inflation, version/magic skew, byte splices — and
// asserts ThreadProfile::load answers every one with a typed SerializeError
// (or a benign successful decode when the damage hits don't-care bits),
// never an untyped exception, an allocation blow-up, or a crash. Run it
// under ASan/UBSan (the ci.yml asan-ubsan job does) and "no crash" becomes
// "no UB" too.
//
// The cache harness drives the same corruptions through WorkloadLab's
// on-disk profile cache and asserts each one degrades to a cache miss that
// regenerates the file (counted by lab.cache_corrupt).
//
// The checkpoint harnesses extend both to the SCKP archives of
// core/checkpoint.h: the in-memory sweep asserts load_checkpoint answers
// every corruption with a typed SerializeError or a bit-exact benign decode
// (a decode that restores *different* state than the pristine archive is a
// silent-corruption failure), and the recovery drill corrupts published
// archives under a real lab and asserts measure_units falls back to
// re-execution with numbers identical to the oracle pass.
#pragma once

#include <cstdint>

#include "verify/verify.h"

namespace simprof::verify {

struct FaultConfig {
  std::uint64_t seed = 1;
  std::size_t cases = 500;
};

/// In-memory archive corruption sweep. Increments verify.faults_injected
/// per case; fingerprint covers every per-case verdict.
VerifyReport verify_archive_robustness(const FaultConfig& cfg);

/// End-to-end lab-cache drill: populate a real cache in a scratch dir, then
/// corrupt the file one way per case and assert the next run is a miss that
/// recovers. Runs a tiny workload a handful of times (~seconds).
VerifyReport verify_lab_cache_recovery(std::uint64_t seed);

/// In-memory checkpoint-archive corruption sweep over the deterministic
/// fixture corpus (synthetic.h), plus the golden-checkpoint tripwire: the
/// frozen bytes of golden_checkpoint.h must equal a fresh fixture save and
/// restore bit-identical state. Increments verify.ckpt_faults_injected per
/// case.
VerifyReport verify_checkpoint_robustness(const FaultConfig& cfg);

/// End-to-end checkpoint fallback drill: record archives with a real lab
/// run, corrupt them one way per case, and assert measure_units reports
/// fallback with records bitwise-equal to the oracle profile's units.
VerifyReport verify_checkpoint_recovery(std::uint64_t seed);

}  // namespace simprof::verify
