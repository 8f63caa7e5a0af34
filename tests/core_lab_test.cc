// WorkloadLab::run_batch: bit-identity with serial run() calls for any
// thread count, duplicate keys sharing one oracle pass, item order across
// hits and misses, and single-flight serialization of concurrent same-key
// runs. Plus
// measure_units: checkpoint-restored measurement of selected units is
// bit-identical to the oracle pass, with and without archives, at any
// worker-thread count, and falls back to exact re-execution on corruption.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/lab.h"
#include "obs/obs.h"
#include "support/serialize.h"
#include "test_util.h"

namespace simprof::core {
namespace {

LabConfig small_lab(const char* dir) {
  LabConfig cfg;
  cfg.scale = 0.05;
  cfg.graph_scale_override = 12;
  cfg.cache_dir = dir;
  return cfg;
}

class ScratchDir {
 public:
  ScratchDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("simprof_lab_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const char* c_str() const { return path_.c_str(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

std::string profile_bytes(const ThreadProfile& p) {
  std::ostringstream os(std::ios::binary);
  p.save(os);
  return os.str();
}

std::uint64_t counter_value(const char* name) {
  return obs::metrics().counter(name).value();
}

// Pins the cache hierarchy and the MAV tracker end to end: an FNV-1a
// digest of every unit's PMU counters and MAV block for three configs at
// scale 0.05, seed 42, recorded before the cache kernel moved to per-set age
// vectors. A divergence of any cache level or of the tracker shows here
// without the scale-1 golden profiles.
TEST(HierarchyPin, UnitCountersAndMavsMatchTheRecordedDigests) {
  const struct {
    const char* workload;
    std::uint64_t digest;
  } pins[] = {
      {"wc_sp", 0x6554c6ae3b0360efULL},
      {"sort_hp", 0x3ba67cbb40639ef7ULL},
      {"cc_sp", 0x4853f1577b91f961ULL},
  };
  ScratchDir dir;
  LabConfig cfg;
  cfg.scale = 0.05;
  cfg.seed = 42;
  cfg.cache_dir = dir.c_str();
  cfg.use_cache = false;
  cfg.checkpoint_stride = 0;
  WorkloadLab lab(cfg);
  for (const auto& pin : pins) {
    const ThreadProfile profile = lab.run(pin.workload).profile;
    std::uint64_t h = testing::kFnv1aOffset;
    for (const UnitRecord& u : profile.units) {
      const hw::PmuCounters& c = u.counters;
      for (const std::uint64_t v :
           {c.instructions, c.cycles, c.line_touches, c.l1_misses,
            c.l2_misses, c.llc_misses, c.migrations}) {
        h = testing::fnv1a_mix(h, v);
      }
      for (const std::uint64_t v : u.mav.counts) h = testing::fnv1a_mix(h, v);
    }
    EXPECT_GT(profile.units.size(), 10u) << pin.workload;
    EXPECT_EQ(h, pin.digest) << pin.workload << " (" << profile.units.size()
                             << " units)" << std::hex << " got 0x" << h;
  }
}

TEST(LabBatch, EmptyBatchIsANoOp) {
  ScratchDir dir;
  WorkloadLab lab(small_lab(dir.c_str()));
  EXPECT_TRUE(lab.run_batch({}).empty());
}

TEST(LabBatch, MatchesSerialRunsBitIdentical) {
  // Serial reference runs in their own cache dir.
  ScratchDir serial_dir;
  WorkloadLab serial(small_lab(serial_dir.c_str()));
  const std::vector<BatchItem> items = {
      {"grep_sp", "Google", {}},
      {"wc_sp", "Google", {}},
      {"grep_sp", "Google", std::uint64_t{77}},  // distinct seed → new key
  };
  std::vector<std::string> expect;
  expect.push_back(profile_bytes(serial.run("grep_sp").profile));
  expect.push_back(profile_bytes(serial.run("wc_sp").profile));
  {
    LabConfig seeded = small_lab(serial_dir.c_str());
    seeded.seed = 77;
    expect.push_back(
        profile_bytes(WorkloadLab(seeded).run("grep_sp").profile));
  }

  for (std::size_t threads : {1u, 4u}) {
    ScratchDir dir;
    LabConfig cfg = small_lab(dir.c_str());
    cfg.threads = threads;
    WorkloadLab lab(cfg);
    const auto runs = lab.run_batch(items);
    ASSERT_EQ(runs.size(), items.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_FALSE(runs[i].from_cache) << i;
      EXPECT_EQ(profile_bytes(runs[i].profile), expect[i])
          << "item " << i << " threads " << threads;
    }
  }
}

TEST(LabBatch, DuplicateItemsRunOnceAndCountDedup) {
  ScratchDir dir;
  LabConfig cfg = small_lab(dir.c_str());
  cfg.threads = 4;
  WorkloadLab lab(cfg);
  const std::uint64_t dedup0 = counter_value("lab.batch_dedup");
  const std::uint64_t misses0 = counter_value("lab.cache_misses");
  const std::uint64_t hits0 = counter_value("lab.cache_hits");
  const std::vector<BatchItem> items = {{"grep_sp", "Google", {}},
                                        {"grep_sp", "Google", {}},
                                        {"grep_sp", "Google", {}}};
  const auto runs = lab.run_batch(items);
  ASSERT_EQ(runs.size(), 3u);
  // One oracle pass through the per-key single-flight; the duplicates decode
  // its published profile, before or after waiting on the key lock (only
  // the waiters count as dedups).
  EXPECT_EQ(counter_value("lab.cache_misses") - misses0, 1u);
  EXPECT_EQ(counter_value("lab.cache_hits") - hits0, 2u);
  EXPECT_LE(counter_value("lab.batch_dedup") - dedup0, 2u);
  const std::string bytes = profile_bytes(runs[0].profile);
  EXPECT_EQ(profile_bytes(runs[1].profile), bytes);
  EXPECT_EQ(profile_bytes(runs[2].profile), bytes);
}

TEST(LabBatch, MixedHitsAndMissesKeepItemOrder) {
  ScratchDir dir;
  LabConfig cfg = small_lab(dir.c_str());
  cfg.threads = 2;
  WorkloadLab lab(cfg);
  const auto warm = lab.run("grep_sp");  // populate one key
  const auto runs = lab.run_batch({{"wc_sp", "Google", {}},
                                   {"grep_sp", "Google", {}}});
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_FALSE(runs[0].from_cache);
  EXPECT_TRUE(runs[1].from_cache);
  EXPECT_EQ(profile_bytes(runs[1].profile), profile_bytes(warm.profile));
}

TEST(LabCache, StaleSchemaFileIsACountedMissNeverAWrongNumber) {
  ScratchDir dir;
  WorkloadLab warm_lab(small_lab(dir.c_str()));
  const LabRun warm = warm_lab.run("grep_sp");
  ASSERT_FALSE(warm.cache_path.empty());
  const std::string golden = profile_bytes(warm.profile);

  // Overwrite the cache file with an otherwise-plausible archive written
  // under an older schema: good magic, pre-MAV version, empty body. The
  // decoder must reject it on the version field, not misparse the body.
  {
    std::ofstream out(warm.cache_path, std::ios::binary | std::ios::trunc);
    BinaryWriter w(out);
    w.u32(0x53505246);  // "SPRF"
    w.u32(3);           // stale pre-MAV profile version
    w.u64(0);           // no methods
    w.u64(0);           // no units
  }

  const std::uint64_t corrupt0 = counter_value("lab.cache_corrupt");
  const std::uint64_t misses0 = counter_value("lab.cache_misses");
  WorkloadLab lab(small_lab(dir.c_str()));
  const LabRun rerun = lab.run("grep_sp");
  // The stale file is a logged miss — never served as a hit, never a wrong
  // number: the oracle pass reruns and reproduces the original bytes.
  EXPECT_FALSE(rerun.from_cache);
  EXPECT_EQ(counter_value("lab.cache_corrupt") - corrupt0, 1u);
  EXPECT_EQ(counter_value("lab.cache_misses") - misses0, 1u);
  EXPECT_EQ(profile_bytes(rerun.profile), golden);

  // The regenerated file is a current-schema hit on the next lab.
  WorkloadLab again(small_lab(dir.c_str()));
  const LabRun hit = again.run("grep_sp");
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(profile_bytes(hit.profile), golden);
}

TEST(LabSingleFlight, ConcurrentSameKeyRunsOracleOnce) {
  ScratchDir dir;
  WorkloadLab lab(small_lab(dir.c_str()));
  const std::uint64_t misses0 = counter_value("lab.cache_misses");
  const std::uint64_t hits0 = counter_value("lab.cache_hits");
  const std::uint64_t dedup0 = counter_value("lab.batch_dedup");

  constexpr std::size_t kCallers = 4;
  std::vector<std::string> bytes(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      bytes[i] = profile_bytes(lab.run("grep_sp").profile);
    });
  }
  for (auto& t : callers) t.join();

  // Exactly one oracle pass; every other caller decoded the published
  // profile (a cache hit), either on the unlocked fast path or as a
  // single-flight dedup inside the key lock (which counts both).
  EXPECT_EQ(counter_value("lab.cache_misses") - misses0, 1u);
  EXPECT_EQ(counter_value("lab.cache_hits") - hits0, kCallers - 1);
  EXPECT_LE(counter_value("lab.batch_dedup") - dedup0, kCallers - 1);
  for (std::size_t i = 1; i < kCallers; ++i) {
    EXPECT_EQ(bytes[i], bytes[0]) << "caller " << i;
  }
}

bool same_counters(const hw::PmuCounters& a, const hw::PmuCounters& b) {
  return a.instructions == b.instructions && a.cycles == b.cycles &&
         a.line_touches == b.line_touches && a.l1_misses == b.l1_misses &&
         a.l2_misses == b.l2_misses && a.llc_misses == b.llc_misses &&
         a.migrations == b.migrations;
}

/// Every measured record must equal the oracle profile's record for the same
/// unit id, bitwise: counters, methods, and frame counts.
void expect_records_match_oracle(const std::vector<UnitRecord>& measured,
                                 const ThreadProfile& oracle) {
  for (const auto& m : measured) {
    ASSERT_LT(m.unit_id, oracle.units.size());
    const UnitRecord& o = oracle.units[m.unit_id];
    ASSERT_EQ(o.unit_id, m.unit_id);
    EXPECT_TRUE(same_counters(m.counters, o.counters))
        << "unit " << m.unit_id << " counters diverged";
    EXPECT_EQ(m.methods, o.methods) << "unit " << m.unit_id;
    EXPECT_EQ(m.counts, o.counts) << "unit " << m.unit_id;
  }
}

TEST(LabMeasure, CheckpointedUnitsMatchOracleAtAnyThreadCount) {
  for (std::size_t threads : {1u, 4u}) {
    ScratchDir dir;
    LabConfig cfg = small_lab(dir.c_str());
    cfg.threads = threads;
    cfg.checkpoint_stride = 2;
    WorkloadLab lab(cfg);

    // Oracle pass via the batch path (exercises the configured pool width)
    // records checkpoints as a side effect.
    const auto runs = lab.run_batch({{"grep_sp", "Google", {}}});
    ASSERT_EQ(runs.size(), 1u);
    const ThreadProfile& oracle = runs[0].profile;
    ASSERT_GE(oracle.units.size(), 4u);

    const std::vector<std::uint64_t> targets = {
        1, oracle.units.size() / 2, oracle.units.size() - 1};
    const auto m = lab.measure_units("grep_sp", "Google", targets);
    ASSERT_EQ(m.records.size(), targets.size()) << "threads " << threads;
    EXPECT_TRUE(m.used_checkpoints) << "threads " << threads;
    EXPECT_FALSE(m.fallback) << "threads " << threads;
    EXPECT_GT(m.checkpoints_restored, 0u);
    EXPECT_GT(m.fast_forwarded_instrs, 0u);
    expect_records_match_oracle(m.records, oracle);
  }
}

TEST(LabMeasure, NoArchivesStillMeasuresExactlyFromColdStart) {
  ScratchDir dir;
  LabConfig cfg = small_lab(dir.c_str());
  cfg.checkpoint_stride = 0;  // recording disabled → no archives on disk
  WorkloadLab lab(cfg);
  const ThreadProfile oracle = lab.run("grep_sp").profile;
  ASSERT_GE(oracle.units.size(), 2u);

  const auto m =
      lab.measure_units("grep_sp", "Google", {0, oracle.units.size() - 1});
  EXPECT_FALSE(m.used_checkpoints);
  EXPECT_FALSE(m.fallback);  // no archives is a cold plan, not a failure
  ASSERT_EQ(m.records.size(), 2u);
  expect_records_match_oracle(m.records, oracle);
}

TEST(LabMeasure, ColdMeasureStopsAfterTheLastTarget) {
  // sort_sp sizes its quicksort passes by draws from the profiled thread's
  // generator, so the skipped tail only adds up to the oracle pass's total
  // if the stopped core keeps that generator in step.
  ScratchDir dir;
  LabConfig cfg = small_lab(dir.c_str());
  cfg.checkpoint_stride = 0;
  WorkloadLab lab(cfg);
  const ThreadProfile oracle = lab.run("sort_sp").profile;
  ASSERT_GE(oracle.units.size(), 5u);

  const auto early = lab.measure_units("sort_sp", "Google", {1});
  EXPECT_FALSE(early.used_checkpoints);
  EXPECT_FALSE(early.fallback);
  ASSERT_EQ(early.records.size(), 1u);
  expect_records_match_oracle(early.records, oracle);
  EXPECT_GT(early.fast_forwarded_instrs, 0u);

  // Everything after unit 1 is skipped: the oracle's total, give or take a
  // trailing tail too short to form a unit.
  const std::uint64_t executed = 2 * cfg.unit_instrs;
  EXPECT_GE(early.fast_forwarded_instrs + executed,
            oracle.total_instructions());
  EXPECT_LT(early.fast_forwarded_instrs + executed,
            oracle.total_instructions() + cfg.unit_instrs / 10);

  const auto later = lab.measure_units("sort_sp", "Google", {3});
  ASSERT_EQ(later.records.size(), 1u);
  expect_records_match_oracle(later.records, oracle);
  EXPECT_EQ(early.fast_forwarded_instrs - later.fast_forwarded_instrs,
            2 * cfg.unit_instrs);
}

TEST(LabMeasure, StrayArchiveNamesAreSkipped) {
  ScratchDir dir;
  LabConfig cfg = small_lab(dir.c_str());
  cfg.checkpoint_stride = 2;
  WorkloadLab lab(cfg);
  const ThreadProfile oracle = lab.run("grep_sp").profile;

  // All digits, but too long for a unit index.
  const std::filesystem::path ckpt_dir =
      lab.checkpoint_dir_for("grep_sp", "Google", cfg.seed);
  std::ofstream(ckpt_dir / "ckpt-u99999999999999999999999.sckp") << "x";

  const auto m = lab.measure_units("grep_sp", "Google", {1, 3});
  EXPECT_TRUE(m.used_checkpoints);
  EXPECT_FALSE(m.fallback);
  ASSERT_EQ(m.records.size(), 2u);
  expect_records_match_oracle(m.records, oracle);
}

TEST(LabMeasure, CorruptArchivesFallBackToExactReexecution) {
  ScratchDir dir;
  LabConfig cfg = small_lab(dir.c_str());
  cfg.checkpoint_stride = 2;
  WorkloadLab lab(cfg);
  const auto run = lab.run("grep_sp");
  const ThreadProfile& oracle = run.profile;

  // Truncate every published archive: any restore attempt must be rejected
  // by the format's typed checks, never half-applied.
  const std::filesystem::path ckpt_dir =
      lab.checkpoint_dir_for("grep_sp", "Google", cfg.seed);
  std::size_t corrupted = 0;
  for (const auto& e : std::filesystem::directory_iterator(ckpt_dir)) {
    std::string bytes;
    {
      std::ifstream in(e.path(), std::ios::binary);
      std::ostringstream os;
      os << in.rdbuf();
      bytes = os.str();
    }
    std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  const std::uint64_t fallbacks0 = counter_value("ckpt.fallback");
  const auto m = lab.measure_units("grep_sp", "Google", {2});
  EXPECT_TRUE(m.fallback);
  EXPECT_EQ(counter_value("ckpt.fallback") - fallbacks0, 1u);
  ASSERT_EQ(m.records.size(), 1u);
  expect_records_match_oracle(m.records, oracle);
}

TEST(LabMeasure, ReplayedMidWindowUnitsMatchOracleAcrossMigrations) {
  // Workload code draws from the thread's generator between unit
  // boundaries and a tape replay never runs it, so a migration drawn at a
  // boundary inside a window must come from the archived generator state.
  // wc_sp at this seed migrates at several mid-window boundaries.
  ScratchDir dir;
  LabConfig cfg = small_lab(dir.c_str());
  cfg.scale = 0.1;
  cfg.seed = 33;
  cfg.checkpoint_stride = 2;
  WorkloadLab lab(cfg);
  const ThreadProfile oracle = lab.run("wc_sp").profile;

  std::vector<std::uint64_t> targets;
  std::size_t mid_window_migrations = 0;
  for (const UnitRecord& u : oracle.units) {
    targets.push_back(u.unit_id);
    if (u.unit_id % 2 == 1 && u.counters.migrations > 0) {
      ++mid_window_migrations;
    }
  }
  ASSERT_GT(mid_window_migrations, 0u) << "fixture no longer migrates";

  const auto m = lab.measure_units("wc_sp", "Google", targets);
  EXPECT_TRUE(m.used_checkpoints);
  EXPECT_FALSE(m.fallback);
  ASSERT_EQ(m.records.size(), targets.size());
  expect_records_match_oracle(m.records, oracle);
}

TEST(LabMeasure, PreviousFormatArchivesFallBackToExactReexecution) {
  ScratchDir dir;
  LabConfig cfg = small_lab(dir.c_str());
  cfg.checkpoint_stride = 2;
  WorkloadLab lab(cfg);
  const ThreadProfile oracle = lab.run("grep_sp").profile;

  // Rewrite every archive's version field (bytes 4..7, after the magic) to
  // the previous format: the typed version check must reject it.
  const std::filesystem::path ckpt_dir =
      lab.checkpoint_dir_for("grep_sp", "Google", cfg.seed);
  std::size_t rewritten = 0;
  for (const auto& e : std::filesystem::directory_iterator(ckpt_dir)) {
    std::fstream f(e.path(), std::ios::binary | std::ios::in | std::ios::out);
    const std::uint32_t old_version = kCheckpointVersion - 1;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&old_version), sizeof old_version);
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);

  const auto m = lab.measure_units("grep_sp", "Google", {3});
  EXPECT_TRUE(m.fallback);
  ASSERT_EQ(m.records.size(), 1u);
  expect_records_match_oracle(m.records, oracle);
}

TEST(CheckpointPrune, RemovesOnlyStaleSchemaDirs) {
  std::ostringstream sink;
  obs::set_log_sink(&sink);
  ScratchDir dir;
  namespace fs = std::filesystem;
  const fs::path root(dir.c_str());
  const std::string current =
      "grep_sp-Google-bbbb-v" + std::to_string(kLabCacheSchema);
  fs::create_directories(root / "grep_sp-Google-aaaa-v4");  // stale schema
  fs::create_directories(root / current);                   // current schema
  fs::create_directories(root / "notes");                   // no -v suffix
  fs::create_directories(root / "thing-vx4");               // non-digit suffix
  { std::ofstream(root / "file-v4") << "not a dir"; }       // regular file

  const std::uint64_t pruned0 = counter_value("ckpt.pruned");
  EXPECT_EQ(prune_stale_checkpoint_dirs(root.string()), 1u);
  EXPECT_FALSE(fs::exists(root / "grep_sp-Google-aaaa-v4"));
  EXPECT_TRUE(fs::exists(root / current));
  EXPECT_TRUE(fs::exists(root / "notes"));
  EXPECT_TRUE(fs::exists(root / "thing-vx4"));
  EXPECT_TRUE(fs::exists(root / "file-v4"));
  EXPECT_EQ(counter_value("ckpt.pruned") - pruned0, 1u);
  // The sweep announces what it removed.
  EXPECT_NE(sink.str().find("pruned 1 stale checkpoint dir"),
            std::string::npos);

  // A second sweep and a missing root are clean no-ops.
  EXPECT_EQ(prune_stale_checkpoint_dirs(root.string()), 0u);
  EXPECT_EQ(prune_stale_checkpoint_dirs((root / "missing").string()), 0u);
  EXPECT_EQ(counter_value("ckpt.pruned") - pruned0, 1u);
  obs::set_log_sink(nullptr);
}

}  // namespace
}  // namespace simprof::core
