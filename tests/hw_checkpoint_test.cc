// Checkpoint substrate tests: Cache save/load round-trips (tag arrays, LRU
// order, pressure and statistics), geometry validation, ThreadState
// capture/restore, and full snapshot → pollute → restore → resume
// bit-identity on a live cluster — including the shared-LLC multi-core case
// and the SCKP archive layer (core/checkpoint.h) identity checks.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "exec/cluster.h"
#include "hw/cache.h"
#include "jvm/call_stack.h"
#include "support/serialize.h"
#include "test_util.h"

namespace simprof::hw {
namespace {

bool same_counters(const PmuCounters& a, const PmuCounters& b) {
  return a.instructions == b.instructions && a.cycles == b.cycles &&
         a.line_touches == b.line_touches && a.l1_misses == b.l1_misses &&
         a.l2_misses == b.l2_misses && a.llc_misses == b.llc_misses &&
         a.migrations == b.migrations;
}

std::string cache_bytes(const Cache& c) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  c.save_state(w);
  return out.str();
}

void load_cache(Cache& c, const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader r(in);
  c.load_state(r);
}

/// Round-trips `a` into a differently warmed cache of the same geometry and
/// checks the restored state, then that both resume bit-identically.
void expect_roundtrip(Cache& a, const char* what) {
  SCOPED_TRACE(what);
  Cache b(a.config());
  for (LineAddr l = 0; l < 300; ++l) b.access(l * 7 + 1000);
  load_cache(b, cache_bytes(a));
  EXPECT_EQ(b.stats().hits, a.stats().hits);
  EXPECT_EQ(b.stats().misses, a.stats().misses);
  EXPECT_EQ(b.effective_ways(), a.effective_ways());
  EXPECT_EQ(cache_bytes(b), cache_bytes(a));

  // Resumed behaviour is bit-identical: same hits and misses for any
  // subsequent access sequence.
  for (LineAddr l = 0; l < 100; ++l) {
    EXPECT_EQ(a.access(l % 53), b.access(l % 53)) << "line " << l;
  }
  EXPECT_EQ(cache_bytes(b), cache_bytes(a));
}

TEST(CacheState, SaveLoadRoundtripPreservesWarmthAndStats) {
  const CacheConfig cfg{4096, 4};  // 16 sets of 4 ways
  {
    Cache a(cfg);
    for (LineAddr l = 0; l < 200; ++l) a.access(l % 37);
    a.set_effective_ways(2);
    expect_roundtrip(a, "warm, under pressure");
  }
  {
    Cache a(cfg);
    expect_roundtrip(a, "empty");
  }
  {
    // Set 0 empty, set 1 with some ways valid, set 2 with all of them.
    Cache a(cfg);
    for (const LineAddr l : {1, 17, 2, 18, 34, 50, 66}) a.access(l);
    expect_roundtrip(a, "partly filled");
  }
  {
    Cache a(cfg);
    for (LineAddr l = 0; l < 4 * 64; ++l) a.access(l);
    expect_roundtrip(a, "full");
  }
  {
    Cache a(cfg);
    for (LineAddr l = 0; l < 4 * 64; ++l) a.access(l);
    a.flush();
    expect_roundtrip(a, "flushed");
  }
}

TEST(CacheState, OnlyOccupiedWaysAreArchived) {
  const CacheConfig cfg{4096, 4};
  Cache empty(cfg);
  Cache full(cfg);
  for (LineAddr l = 0; l < 4 * 64; ++l) full.access(l);
  // Empty: a count byte per set and no tags; full: every way's tag too.
  EXPECT_EQ(cache_bytes(full).size() - cache_bytes(empty).size(),
            64 * sizeof(LineAddr));
}

TEST(CacheState, GeometryMismatchThrowsSerializeError) {
  Cache a({4096, 4});
  for (LineAddr l = 0; l < 64; ++l) a.access(l);
  const std::string bytes = cache_bytes(a);

  Cache wrong_size({8192, 4});
  EXPECT_THROW(load_cache(wrong_size, bytes), SerializeError);
  Cache wrong_ways({4096, 2});
  EXPECT_THROW(load_cache(wrong_ways, bytes), SerializeError);
}

TEST(CacheState, MoreThan255WaysRejectedAtConstruction) {
  EXPECT_THROW(Cache({256 * kLineBytes, 256}), ContractViolation);
}

/// Hand-built state section for `cfg` with the given occupancy and tags.
std::string state_bytes(const CacheConfig& cfg, const std::string& counts,
                        const std::vector<LineAddr>& tags) {
  std::string out;
  BinaryWriter w(out);
  w.u64(cfg.size_bytes);
  w.u32(cfg.ways);
  w.u32(cfg.ways);  // effective ways
  w.u64(0);         // hits
  w.u64(0);         // misses
  w.str(counts);
  w.vec_u64(tags);
  return out;
}

TEST(CacheState, CorruptArchiveNeverHalfRestores) {
  const CacheConfig cfg{2048, 2};  // 16 sets of 2 ways
  Cache a(cfg);
  for (LineAddr l = 0; l < 64; ++l) a.access(l % 13);
  std::string truncated = cache_bytes(a);
  truncated.resize(truncated.size() / 2);  // truncate mid tag array

  // Well-formed: set 0 holds two tags, set 1 one.
  std::string counts(16, '\0');
  counts[0] = 2;
  counts[1] = 1;
  const std::vector<LineAddr> tags = {16, 0, 1};
  {
    Cache ok(cfg);
    load_cache(ok, state_bytes(cfg, counts, tags));
    EXPECT_TRUE(ok.access(16));
    EXPECT_TRUE(ok.access(1));
  }

  std::string over_ways = counts;
  over_ways[2] = 3;  // more than the 2 ways, tags to match
  std::string over_tags = counts;
  over_tags[3] = 1;  // counts sum to one more tag than there are
  std::vector<LineAddr> trailing = tags;
  trailing.push_back(5);  // one tag no set claims

  const struct {
    const char* what;
    std::string bytes;
  } corrupt[] = {
      {"truncated", truncated},
      {"count above ways",
       state_bytes(cfg, over_ways, {16, 0, 1, 2, 18, 34})},
      {"counts exceed tag count", state_bytes(cfg, over_tags, tags)},
      {"trailing tags", state_bytes(cfg, counts, trailing)},
  };
  for (const auto& c : corrupt) {
    SCOPED_TRACE(c.what);
    Cache b(cfg);
    for (LineAddr l = 0; l < 8; ++l) b.access(l);
    const std::string before = cache_bytes(b);
    EXPECT_THROW(load_cache(b, c.bytes), SerializeError);
    EXPECT_EQ(cache_bytes(b), before);  // b untouched by the failed load
  }
}

TEST(CacheState, TagsBeyondThe32BitLineSpaceThrowSerializeError) {
  const CacheConfig cfg{2048, 2};  // 16 sets of 2 ways
  std::string counts(16, '\0');
  counts[14] = 1;
  {
    // The highest legal line loads and hits.
    Cache ok(cfg);
    load_cache(ok, state_bytes(cfg, counts, {kLineLimit - 1}));
    EXPECT_TRUE(ok.access(kLineLimit - 1));
  }
  for (const LineAddr bad : {kLineLimit, LineAddr{1} << 40, ~LineAddr{0}}) {
    SCOPED_TRACE(bad);
    Cache b(cfg);
    for (LineAddr l = 0; l < 8; ++l) b.access(l);
    const std::string before = cache_bytes(b);
    EXPECT_THROW(load_cache(b, state_bytes(cfg, counts, {bad})),
                 SerializeError);
    EXPECT_EQ(cache_bytes(b), before);
  }
}

/// Deterministic two-stage workload; stage 2 resumes mid-unit so the restore
/// point sits inside a sampling unit's accounting.
void run_stage_one(exec::Cluster& cluster) {
  cluster.run_stage("stage1", 1, [](std::size_t, exec::ExecutorContext& ctx) {
    const auto m = ctx.method("test.scan", jvm::OpKind::kMap);
    jvm::MethodScope scope(ctx.stack(), m);
    auto s = AccessStream::strided(0, 64 * 4000);
    ctx.execute(150'000, s);
  });
}

void run_stage_two(exec::Cluster& cluster, bool both_cores) {
  // A second concurrent task widens the wave: the shared LLC runs under
  // pressure while the profiled thread executes.
  cluster.run_stage("stage2", both_cores ? 2 : 1,
                    [](std::size_t task, exec::ExecutorContext& ctx) {
                      if (task == 0) {
                        const auto m =
                            ctx.method("test.probe", jvm::OpKind::kReduce);
                        jvm::MethodScope scope(ctx.stack(), m);
                        auto s = AccessStream::random(0, 1 << 18, 6000,
                                                      ctx.rng());
                        ctx.execute(180'000, s);
                      } else {
                        auto s = AccessStream::strided(1 << 20, 64 * 8000);
                        ctx.execute(180'000, s);
                      }
                    });
}

std::string memory_bytes(const exec::Cluster& cluster) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  cluster.memory().l1(0).save_state(w);
  cluster.memory().l2(0).save_state(w);
  cluster.memory().llc().save_state(w);
  return out.str();
}

void snapshot_restore_resume_case(bool both_cores) {
  const auto cfg = testing::tiny_cluster_config();

  // Reference: run both stages straight through.
  exec::Cluster ref(cfg);
  run_stage_one(ref);
  run_stage_two(ref, both_cores);
  ref.finish();

  // Checkpointed twin: run stage 1, snapshot, pollute every level of the
  // profiled hierarchy, restore, then resume stage 2.
  exec::Cluster twin(cfg);
  run_stage_one(twin);
  const exec::ThreadState snap = twin.context(0).capture_state();
  const std::string caches = memory_bytes(twin);

  for (LineAddr l = 0; l < 5000; ++l) {
    twin.memory().access(0, MemRef{0xBEEF000 + l, l % 2 == 0, false});
  }
  ASSERT_NE(memory_bytes(twin), caches);

  {
    std::istringstream in(caches, std::ios::binary);
    BinaryReader r(in);
    twin.memory().l1(0).load_state(r);
    twin.memory().l2(0).load_state(r);
    twin.memory().llc().load_state(r);
  }
  twin.context(0).restore_state(snap);
  ASSERT_EQ(memory_bytes(twin), caches);
  run_stage_two(twin, both_cores);
  twin.finish();

  EXPECT_TRUE(same_counters(twin.context(0).counters(),
                            ref.context(0).counters()))
      << "restored run diverged from straight-through run";
  EXPECT_EQ(memory_bytes(twin), memory_bytes(ref));
}

TEST(ClusterCheckpoint, SnapshotRestoreResumeBitIdentity) {
  snapshot_restore_resume_case(/*both_cores=*/false);
}

TEST(ClusterCheckpoint, SharedLlcMultiCoreBitIdentity) {
  snapshot_restore_resume_case(/*both_cores=*/true);
}

TEST(ClusterCheckpoint, ThreadStateCaptureRestoreRoundtrip) {
  exec::Cluster cluster(testing::tiny_cluster_config());
  run_stage_one(cluster);
  auto& ctx = cluster.context(0);
  const exec::ThreadState snap = ctx.capture_state();

  // Drift everything the state covers, then restore.
  ctx.compute(70'000);
  ctx.rng().next_u64();
  ctx.restore_state(snap);

  const exec::ThreadState back = ctx.capture_state();
  EXPECT_TRUE(same_counters(back.counters, snap.counters));
  EXPECT_EQ(back.rng, snap.rng);
  EXPECT_EQ(back.frames, snap.frames);
  EXPECT_EQ(back.next_snapshot_at, snap.next_snapshot_at);
  EXPECT_EQ(back.next_unit_at, snap.next_unit_at);
  EXPECT_EQ(back.thread_id, snap.thread_id);
}

TEST(CheckpointArchive, SaveLoadRoundtripOnLiveCluster) {
  // A cluster positioned exactly at a unit boundary can archive itself and
  // restore the archive in place (the identity checks all pass against its
  // own state).
  const auto cfg = testing::tiny_cluster_config();
  exec::Cluster cluster(cfg);
  cluster.context(0).compute(300'000);  // exactly 3 units

  std::ostringstream out(std::ios::binary);
  core::save_checkpoint(out, cluster, "test-key", 3);
  const std::string archive = out.str();

  {
    std::istringstream in(archive, std::ios::binary);
    EXPECT_GT(core::load_checkpoint(in, cluster, "test-key", 3), 0u);
  }

  // Identity mismatches are typed rejections, not wrong restores.
  {
    std::istringstream in(archive, std::ios::binary);
    EXPECT_THROW(core::load_checkpoint(in, cluster, "other-key", 3),
                 core::CheckpointError);
  }
  {
    std::istringstream in(archive, std::ios::binary);
    EXPECT_THROW(core::load_checkpoint(in, cluster, "test-key", 2),
                 core::CheckpointError);
  }
  {
    std::string flipped = archive;
    flipped[flipped.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(flipped[flipped.size() / 2]) ^ 0x01);
    std::istringstream in(flipped, std::ios::binary);
    EXPECT_THROW(core::load_checkpoint(in, cluster, "test-key", 3),
                 SerializeError);
  }
}

}  // namespace
}  // namespace simprof::hw
