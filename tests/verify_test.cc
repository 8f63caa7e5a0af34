// Self-tests for the verification subsystem (src/verify): the harness that
// checks everything else must itself be checked. Covers (a) seeded
// reproducibility — same seed → same corruptions → same verdict fingerprint,
// (b) the default configuration passing on the production implementations,
// and (c) the mutation smoke test — a deliberately broken allocator handed
// to the oracle harness must turn checks red, proving the oracle can fail.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "stats/stratified.h"
#include "verify/fault_inject.h"
#include "verify/golden_checkpoint.h"
#include "verify/oracle.h"
#include "verify/roundtrip.h"
#include "verify/synthetic.h"
#include "verify/verify.h"

namespace simprof::verify {
namespace {

std::string failure_names(const VerifyReport& r) {
  std::string out;
  for (const auto& c : r.checks) {
    if (!c.passed) out += c.name + ": " + c.detail + "\n";
  }
  return out;
}

TEST(FaultInjection, SameSeedSameFingerprint) {
  const FaultConfig cfg{.seed = 42, .cases = 120};
  const auto a = verify_archive_robustness(cfg);
  const auto b = verify_archive_robustness(cfg);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.cases_run, 120u);
  EXPECT_EQ(b.cases_run, 120u);
}

TEST(FaultInjection, DifferentSeedsDivergeInFingerprint) {
  const auto a = verify_archive_robustness({.seed = 42, .cases = 120});
  const auto b = verify_archive_robustness({.seed = 43, .cases = 120});
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(FaultInjection, FiveHundredCasesAllAnswerWithTypedErrors) {
  auto& injected = obs::metrics().counter("verify.faults_injected");
  const auto before = injected.value();
  const auto r = verify_archive_robustness({.seed = 1, .cases = 500});
  EXPECT_TRUE(r.ok()) << failure_names(r);
  EXPECT_EQ(r.cases_run, 500u);
  EXPECT_EQ(injected.value() - before, 500u);
}

TEST(Roundtrip, AllChecksPassIncludingGoldenArchive) {
  const auto r = verify_roundtrip(7);
  EXPECT_TRUE(r.ok()) << failure_names(r);
  bool saw_golden = false;
  for (const auto& c : r.checks) {
    if (c.name == "roundtrip.golden_archive_decodes") saw_golden = true;
  }
  EXPECT_TRUE(saw_golden);
}

TEST(Roundtrip, SameSeedSameFingerprint) {
  EXPECT_EQ(verify_roundtrip(9).fingerprint, verify_roundtrip(9).fingerprint);
}

TEST(Oracle, PassesOnProductionImplementations) {
  OracleConfig cfg;
  cfg.property_trials = 32;
  cfg.coverage_resamples = 4000;  // tolerance widens with fewer resamples
  const auto r = verify_statistics(cfg);
  EXPECT_TRUE(r.ok()) << failure_names(r);
}

TEST(Oracle, MutationSmokeCatchesBrokenAllocation) {
  // An allocator that dumps every slot into stratum 0 violates the Neyman
  // closed form, the stratum caps, and the Neyman-beats-proportional
  // property. If the oracle stays green here, the oracle is broken.
  auto& failures = obs::metrics().counter("verify.oracle_failures");
  const auto before = failures.value();
  OracleConfig cfg;
  cfg.property_trials = 16;
  cfg.coverage_resamples = 500;
  cfg.allocation = [](std::span<const stats::Stratum> strata,
                      std::size_t total, std::size_t) {
    std::vector<std::size_t> a(strata.size(), 0);
    if (!a.empty()) a[0] = total;
    return a;
  };
  const auto r = verify_statistics(cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(r.failures(), 2u);
  EXPECT_GT(failures.value(), before);
}

TEST(Oracle, SameSeedSameFingerprint) {
  OracleConfig cfg;
  cfg.property_trials = 8;
  cfg.coverage_resamples = 500;
  const auto a = verify_statistics(cfg);
  const auto b = verify_statistics(cfg);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(LabCache, CorruptedCacheEntriesDegradeToMissesAndRecover) {
  const auto r = verify_lab_cache_recovery(11);
  EXPECT_TRUE(r.ok()) << failure_names(r);
}

TEST(CheckpointFaults, SameSeedSameFingerprint) {
  const FaultConfig cfg{.seed = 42, .cases = 120};
  EXPECT_EQ(verify_checkpoint_robustness(cfg).fingerprint,
            verify_checkpoint_robustness(cfg).fingerprint);
}

TEST(CheckpointFaults, SweepAnswersWithTypedErrorsAndGoldenArchiveHolds) {
  auto& injected = obs::metrics().counter("verify.ckpt_faults_injected");
  const auto before = injected.value();
  const auto r = verify_checkpoint_robustness({.seed = 1, .cases = 400});
  EXPECT_TRUE(r.ok()) << failure_names(r);
  EXPECT_EQ(r.cases_run, 400u);
  EXPECT_EQ(injected.value() - before, 400u);
  bool saw_golden = false;
  for (const auto& c : r.checks) {
    if (c.name == "ckpt.golden_archive_stable") saw_golden = true;
  }
  EXPECT_TRUE(saw_golden);
}

TEST(CheckpointFaults, PayloadHashCoversEveryBitOfTheGoldenArchive) {
  const std::string golden(reinterpret_cast<const char*>(kGoldenCheckpointV4),
                           sizeof kGoldenCheckpointV4);
  // Header: magic, version, hash, payload length; the payload follows.
  constexpr std::size_t kPayloadStart = 24;
  ASSERT_GT(golden.size(), kPayloadStart);
  // The fixture's payload ends in a partial word, so the sweep also covers
  // the bytes outside the 32-byte lanes and the zero-padded tail.
  ASSERT_NE((golden.size() - kPayloadStart) % 8, 0u);

  const auto twin = checkpoint_fixture(0);
  {
    std::istringstream in(golden, std::ios::binary);
    ASSERT_NO_THROW(core::load_checkpoint(in, *twin, kCheckpointFixtureKey,
                                          kCheckpointFixtureUnit));
  }
  std::size_t caught = 0;
  std::size_t flips = 0;
  std::string first_miss;
  for (std::size_t byte = kPayloadStart; byte < golden.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = golden;
      bytes[byte] = static_cast<char>(static_cast<unsigned char>(bytes[byte]) ^
                                      (1u << bit));
      ++flips;
      std::istringstream in(bytes, std::ios::binary);
      try {
        core::load_checkpoint(in, *twin, kCheckpointFixtureKey,
                              kCheckpointFixtureUnit);
      } catch (const core::CheckpointError& e) {
        if (std::string(e.what()).find("hash mismatch") != std::string::npos) {
          ++caught;
          continue;
        }
      }
      if (first_miss.empty()) {
        first_miss = "byte " + std::to_string(byte) + " bit " +
                     std::to_string(bit);
      }
    }
  }
  EXPECT_EQ(caught, flips) << "first flip the hash missed: " << first_miss;
}

TEST(CheckpointFaults, CorruptedArchivesFallBackToExactReexecution) {
  const auto r = verify_checkpoint_recovery(13);
  EXPECT_TRUE(r.ok()) << failure_names(r);
}

}  // namespace
}  // namespace simprof::verify
