// Unit tests for pipeline-interleaved charging (exec/pipeline.h): deferred
// work items, proportional round-robin flushing, frame prefixes, execute()
// with an explicit reference count and the PipelineScope RAII driver.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "exec/cluster.h"
#include "exec/pipeline.h"
#include "test_util.h"

namespace simprof::exec {
namespace {

/// Records every snapshot's stack for mixture assertions.
class StackRecorder final : public ProfilingHook {
 public:
  void on_snapshot(std::span<const jvm::MethodId> stack) override {
    stacks.emplace_back(stack.begin(), stack.end());
  }
  void on_unit_boundary(const hw::PmuCounters&, const hw::MavBlock&) override {
  }
  std::vector<std::vector<jvm::MethodId>> stacks;
};

/// Collects the instruction count and line addresses of every chunk the
/// profiled core executes.
class ChunkRecorder final : public OpTapeSink {
 public:
  void on_chunk(std::uint64_t instrs, std::span<const hw::MemRef> refs,
                std::uint32_t, std::span<const jvm::MethodId> frames) override {
    std::vector<hw::LineAddr> lines;
    for (const hw::MemRef& r : refs) lines.push_back(r.line);
    chunks.emplace_back(instrs, std::move(lines));
    leaves.push_back(frames.empty() ? 0 : frames.back());
  }
  void on_boundary_rng(std::uint64_t, const RngState&) override {}
  std::vector<std::pair<std::uint64_t, std::vector<hw::LineAddr>>> chunks;
  std::vector<jvm::MethodId> leaves;  ///< innermost frame of each chunk
};

TEST(ExecuteWithCount, TakesAtMostTheCountAndResumes) {
  Cluster cluster(testing::tiny_cluster_config());
  ChunkRecorder rec;
  cluster.set_tape_sink(&rec);
  auto& ctx = cluster.context(0);
  auto stream = hw::AccessStream::strided(0, 64 * 10);
  ctx.execute(5'000, stream, 4);
  EXPECT_EQ(ctx.counters().line_touches, 4u);
  // A later slice continues where the last one stopped and ends with the
  // stream, even when its count asks for more.
  ctx.execute(5'000, stream, 100);
  ASSERT_EQ(rec.chunks.size(), 2u);
  EXPECT_EQ(rec.chunks[0].second, (std::vector<hw::LineAddr>{0, 1, 2, 3}));
  EXPECT_EQ(rec.chunks[1].second,
            (std::vector<hw::LineAddr>{4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(ctx.counters().line_touches, 10u);
}

TEST(ExecuteWithCount, ChunksTakeExactlyTheirShareInBatches) {
  // 1000 references over 95,000 instructions: the 10,000-instruction
  // snapshot boundaries cut them into chunks of 105 or 106 references, none
  // a multiple of the executor's 64-reference batch. Each chunk must take
  // exactly its apportioned references, in order, and the stream's cursor
  // must stop at the count.
  Cluster cluster(testing::tiny_cluster_config());
  ChunkRecorder rec;
  cluster.set_tape_sink(&rec);
  auto& ctx = cluster.context(0);
  auto stream = hw::AccessStream::strided(0, 64 * 5000);
  ctx.execute(95'000, stream, 1000);
  ASSERT_EQ(rec.chunks.size(), 10u);
  std::uint64_t instrs = 0;
  std::uint64_t refs = 0;
  hw::LineAddr next_line = 0;
  for (const auto& [chunk_instrs, lines] : rec.chunks) {
    instrs += chunk_instrs;
    const std::uint64_t target = 1000 * instrs / 95'000;
    EXPECT_EQ(lines.size(), target - refs);
    for (const hw::LineAddr l : lines) EXPECT_EQ(l, next_line++);
    refs = target;
  }
  EXPECT_EQ(refs, 1000u);
  EXPECT_EQ(ctx.counters().line_touches, 1000u);
  hw::MemRef r;
  ASSERT_EQ(stream.take(&r, 1), 1u);
  EXPECT_EQ(r.line, 1000u);
}

TEST(ExecuteWithCount, ZeroInstructionDrainStopsAtCountOrStreamEnd) {
  Cluster cluster(testing::tiny_cluster_config());
  ChunkRecorder rec;
  cluster.set_tape_sink(&rec);
  auto& ctx = cluster.context(0);
  auto stream = hw::AccessStream::strided(0, 64 * 200);
  ctx.execute(0, stream, 150);   // stops at the count, mid-batch
  ctx.execute(0, stream, 1000);  // stops where the stream ends
  ASSERT_EQ(rec.chunks.size(), 2u);
  EXPECT_EQ(rec.chunks[0].first, 0u);
  EXPECT_EQ(rec.chunks[0].second.size(), 150u);
  EXPECT_EQ(rec.chunks[1].second.size(), 50u);
  EXPECT_EQ(rec.chunks[1].second.front(), 150u);
  EXPECT_EQ(rec.chunks[1].second.back(), 199u);
  EXPECT_EQ(ctx.counters().line_touches, 200u);
  EXPECT_EQ(ctx.counters().instructions, 0u);
  hw::MemRef r;
  EXPECT_EQ(stream.take(&r, 1), 0u);
}

TEST(PipelineBatcher, EmptyItemsAreDropped) {
  PipelineBatcher b;
  b.add(1, 0, {});
  EXPECT_TRUE(b.empty());
  b.add(1, 10, {});
  EXPECT_EQ(b.size(), 1u);
}

TEST(PipelineBatcher, FlushChargesAllInstructionsAndRefs) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  PipelineBatcher b;
  b.add(1, 30'000, hw::AccessStream::strided(0, 64 * 50));
  b.add(2, 70'000, {});
  b.flush(ctx, 5'000);
  EXPECT_EQ(ctx.counters().instructions, 100'000u);
  EXPECT_EQ(ctx.counters().line_touches, 50u);
  EXPECT_TRUE(b.empty());
}

TEST(PipelineBatcher, SlicesTakeReferencesInStepWithInstructions) {
  // 1000 references over 50,000 instructions, interleaved with a
  // pure-compute item: after every chunk of the item the references taken
  // so far track 1000 · instructions / 50,000, and they come in order.
  Cluster cluster(testing::tiny_cluster_config());
  ChunkRecorder rec;
  cluster.set_tape_sink(&rec);
  auto& ctx = cluster.context(0);
  PipelineBatcher b;
  b.add(1, 50'000, hw::AccessStream::strided(0, 64 * 1000));
  b.add(2, 30'000, {});
  b.flush(ctx, 5'000);
  std::uint64_t instrs = 0;
  std::uint64_t refs = 0;
  for (std::size_t i = 0; i < rec.chunks.size(); ++i) {
    const auto& [chunk_instrs, lines] = rec.chunks[i];
    if (rec.leaves[i] != 1) {
      EXPECT_TRUE(lines.empty());
      continue;
    }
    for (const hw::LineAddr l : lines) EXPECT_EQ(l, refs++);
    instrs += chunk_instrs;
    const double expected = 1000.0 * static_cast<double>(instrs) / 50'000;
    EXPECT_NEAR(static_cast<double>(refs), expected, 3.0) << "chunk " << i;
  }
  EXPECT_EQ(instrs, 50'000u);
  EXPECT_EQ(refs, 1000u);
}

TEST(PipelineBatcher, ProportionalInterleavingMixesFrames) {
  // Two items with 3:1 instruction ratio; every sampling window must see
  // both frames, with the larger item ~3× as often.
  auto cfg = testing::tiny_cluster_config();
  Cluster cluster(cfg);
  StackRecorder recorder;
  cluster.set_profiling_hook(&recorder);
  auto& ctx = cluster.context(0);

  PipelineBatcher b;
  b.add(11, 600'000, {});
  b.add(22, 200'000, {});
  b.flush(ctx, 5'000);

  std::map<jvm::MethodId, int> leaf_counts;
  for (const auto& s : recorder.stacks) {
    ASSERT_EQ(s.size(), 1u);
    ++leaf_counts[s[0]];
  }
  ASSERT_EQ(recorder.stacks.size(), 80u);  // 800k instrs / 10k snapshots
  EXPECT_GT(leaf_counts[11], 2 * leaf_counts[22]);
  EXPECT_GT(leaf_counts[22], 10);  // the small item is seen throughout
  // Mixture, not blocks: the small item appears in the last quarter too.
  bool late_small = false;
  for (std::size_t i = recorder.stacks.size() * 3 / 4;
       i < recorder.stacks.size(); ++i) {
    late_small |= recorder.stacks[i][0] == 22;
  }
  EXPECT_TRUE(late_small);
}

TEST(PipelineBatcher, FramePrefixesNestConsumersAboveProducers) {
  Cluster cluster(testing::tiny_cluster_config());
  StackRecorder recorder;
  cluster.set_profiling_hook(&recorder);
  auto& ctx = cluster.context(0);

  PipelineBatcher b;
  b.push_frame(100);  // consumer
  b.add(200, 50'000, {});  // producer item recorded under consumer
  b.pop_frame();
  b.add(100, 50'000, {});  // consumer's own work
  b.flush(ctx, 5'000);

  bool saw_nested = false;
  for (const auto& s : recorder.stacks) {
    if (s.size() == 2) {
      EXPECT_EQ(s[0], 100u);
      EXPECT_EQ(s[1], 200u);
      saw_nested = true;
    }
  }
  EXPECT_TRUE(saw_nested);
  // The live stack is balanced after the flush.
  EXPECT_TRUE(ctx.stack().empty());
}

TEST(PipelineScope, AttachesAndFlushesOnFinish) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  EXPECT_EQ(ctx.batcher(), nullptr);
  {
    PipelineScope scope(ctx);
    ASSERT_NE(ctx.batcher(), nullptr);
    ctx.batcher()->add(5, 12'000, {});
    EXPECT_EQ(ctx.counters().instructions, 0u);  // deferred
    scope.finish();
    EXPECT_EQ(ctx.counters().instructions, 12'000u);
    EXPECT_EQ(ctx.batcher(), nullptr);
    scope.finish();  // idempotent
    EXPECT_EQ(ctx.counters().instructions, 12'000u);
  }
}

TEST(PipelineScope, DestructorFlushesAndRestoresPrevious) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  PipelineScope outer(ctx);
  PipelineBatcher* outer_batcher = ctx.batcher();
  {
    PipelineScope inner(ctx);
    EXPECT_NE(ctx.batcher(), outer_batcher);
    ctx.batcher()->add(7, 8'000, {});
  }  // destructor flushes
  EXPECT_EQ(ctx.counters().instructions, 8'000u);
  EXPECT_EQ(ctx.batcher(), outer_batcher);
}

TEST(PipelineBatcher, RefOnlyItemDrainsTraffic) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  PipelineBatcher b;
  b.add(3, 0, hw::AccessStream::strided(0, 64 * 20));
  b.flush(ctx, 1'000);
  EXPECT_EQ(ctx.counters().line_touches, 20u);
}

/// One pipeline's worth of items: a nested producer with a sequential
/// stream, a random and a zipf operator, a refs-only drain and pure compute.
void add_mixed_items(PipelineBatcher& b, Rng& rng) {
  b.push_frame(100);
  b.add(200, 230'000, hw::AccessStream::strided(0, 64 * 3000));
  b.pop_frame();
  b.add(300, 70'000,
        hw::AccessStream::random(1 << 20, 1 << 18, 900, rng, false, 0.3));
  b.add(400, 55'000, hw::AccessStream::zipf(1 << 22, 1 << 17, 700, 0.8, rng));
  b.add(500, 0, hw::AccessStream::strided(1 << 24, 64 * 40, 2, true));
  b.add(600, 45'000, {});
}

TEST(PipelineBatcher, UnprofiledFlushChargesEachItemOnce) {
  Cluster cluster(testing::tiny_cluster_config());
  testing::ChunkDigest digest;
  cluster.set_tape_sink(&digest);
  auto& profiled = cluster.context(0);
  auto& other = cluster.context(1);
  ASSERT_FALSE(other.is_profiled());
  const RngState rng_before = other.rng().state();
  Rng streams(9);
  PipelineBatcher b;
  add_mixed_items(b, streams);
  b.flush(other, 2'500);
  EXPECT_TRUE(b.empty());
  // Exactly the items' instructions, at base CPI, with no jitter draw and a
  // balanced (untouched) shadow stack.
  EXPECT_EQ(other.counters().instructions, 400'000u);
  EXPECT_NEAR(static_cast<double>(other.counters().cycles),
              400'000 * cluster.memory().config().cost.base_cpi, 1.0);
  EXPECT_EQ(other.counters().line_touches, 0u);
  EXPECT_TRUE(other.rng().state() == rng_before);
  EXPECT_TRUE(other.stack().empty());
  // The profiled core saw nothing.
  EXPECT_EQ(profiled.counters().instructions, 0u);
  EXPECT_EQ(profiled.counters().cycles, 0u);
  EXPECT_EQ(profiled.counters().line_touches, 0u);
  EXPECT_EQ(digest.chunks, 0u);
}

TEST(PipelineBatcher, ProfiledChunkSequenceIsPinned) {
  // The profiled core's slicing must not change: its (instructions,
  // references, frames) chunk sequence hashes to the digest recorded before
  // non-profiled cores stopped slicing. A non-profiled flush in between, as
  // in a wave, must not perturb it.
  Cluster cluster(testing::tiny_cluster_config());
  testing::ChunkDigest digest;
  cluster.set_tape_sink(&digest);
  Rng streams(9);
  for (int wave = 0; wave < 2; ++wave) {
    for (std::uint32_t core = 0; core < 2; ++core) {
      PipelineBatcher b;
      add_mixed_items(b, streams);
      b.flush(cluster.context(core), 2'500);
    }
  }
  EXPECT_EQ(cluster.context(0).counters().instructions, 800'000u);
  EXPECT_EQ(digest.chunks, 816u);
  EXPECT_EQ(digest.hash, 11393307052701421741ULL);
}

TEST(PipelineBatcher, FlushRejectsZeroSlice) {
  Cluster cluster(testing::tiny_cluster_config());
  auto& ctx = cluster.context(0);
  PipelineBatcher b;
  b.add(1, 10, {});
  EXPECT_THROW(b.flush(ctx, 0), ContractViolation);
}

}  // namespace
}  // namespace simprof::exec
