// Pipeline-interleaved cost charging.
//
// Spark fuses narrow transformations into one iterator pipeline: during a
// task, a sampling profiler sees *every* pipeline stage's frames in every
// snapshot window, because stages alternate at record granularity. Charging
// each operator's cost as one contiguous block would instead fabricate
// separate phases per operator (an artifact the real system doesn't have).
//
// A PipelineBatcher collects each operator's (frames, instructions, traffic)
// as work items during the functional computation, then flush() replays them
// in round-robin slices far smaller than a snapshot interval — so sampling
// units see the true mixed signature.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/executor_context.h"
#include "hw/access_stream.h"
#include "jvm/method.h"

namespace simprof::exec {

class PipelineBatcher {
 public:
  /// Enter/leave a pipeline stage: frames pushed here prefix every item
  /// added while active (mirrors the consumer-above-producer stack shape).
  void push_frame(jvm::MethodId m) { prefix_.push_back(m); }
  void pop_frame() { prefix_.pop_back(); }

  /// Record one operator's work; an empty `stream` is pure compute.
  void add(jvm::MethodId method, std::uint64_t instrs,
           hw::AccessStream stream);

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// Charge everything in interleaved round-robin slices of at most
  /// `slice_instrs` per step, pushing each item's frames for its slices.
  /// On a non-profiled core each item is charged in one step instead, with
  /// no frames and no jitter draw (the functional-only contract in
  /// executor_context.h). The batcher is empty afterwards.
  void flush(ExecutorContext& ctx, std::uint64_t slice_instrs);

 private:
  struct Item {
    std::vector<jvm::MethodId> frames;
    std::uint64_t instrs = 0;
    std::uint64_t charged = 0;
    hw::AccessStream stream;
  };
  std::vector<jvm::MethodId> prefix_;
  std::vector<Item> items_;
};

/// RAII frame guard for the batcher prefix.
class PipelineFrame {
 public:
  PipelineFrame(PipelineBatcher* batcher, jvm::MethodId m) : batcher_(batcher) {
    if (batcher_ != nullptr) batcher_->push_frame(m);
  }
  ~PipelineFrame() {
    if (batcher_ != nullptr) batcher_->pop_frame();
  }
  PipelineFrame(const PipelineFrame&) = delete;
  PipelineFrame& operator=(const PipelineFrame&) = delete;

 private:
  PipelineBatcher* batcher_;
};

/// RAII attach/flush helper for terminal pipeline drivers (shuffle-map and
/// result tasks): attaches a fresh batcher to the context and flushes it on
/// scope exit (before destructor-run method scopes unwind).
class PipelineScope {
 public:
  explicit PipelineScope(ExecutorContext& ctx)
      : ctx_(ctx), previous_(ctx.batcher()) {
    ctx_.set_batcher(&batcher_);
  }
  ~PipelineScope() { finish(); }

  PipelineScope(const PipelineScope&) = delete;
  PipelineScope& operator=(const PipelineScope&) = delete;

  /// Detach and charge now (idempotent).
  void finish();

 private:
  ExecutorContext& ctx_;
  PipelineBatcher batcher_;
  PipelineBatcher* previous_;
  bool finished_ = false;
};

}  // namespace simprof::exec
