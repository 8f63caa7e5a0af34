#include "exec/pipeline.h"

#include <algorithm>

#include "jvm/call_stack.h"
#include "support/assert.h"

namespace simprof::exec {

void PipelineBatcher::add(jvm::MethodId method, std::uint64_t instrs,
                          hw::AccessStream stream) {
  if (instrs == 0 && stream.total_refs() == 0) return;
  Item item;
  item.frames = prefix_;
  item.frames.push_back(method);
  item.instrs = instrs;
  item.stream = stream;
  items_.push_back(std::move(item));
}

void PipelineBatcher::flush(ExecutorContext& ctx,
                            std::uint64_t slice_instrs) {
  SIMPROF_EXPECTS(slice_instrs > 0, "slice must be positive");
  if (!ctx.is_profiled()) {
    // A functional-only core (executor_context.h) only counts instructions,
    // so slicing would reorder charges nothing observes: one step per item.
    for (Item& item : items_) ctx.execute(item.instrs, item.stream);
    items_.clear();
    return;
  }
  // Proportional interleaving: every item finishes in the same number of
  // rounds, so the mixture seen by each sampling window matches each
  // operator's share of the pipeline — a fused iterator's time profile.
  std::uint64_t max_instrs = 0;
  for (const Item& item : items_) {
    max_instrs = std::max(max_instrs, item.instrs);
  }
  const std::uint64_t rounds =
      std::max<std::uint64_t>(1, (max_instrs + slice_instrs - 1) /
                                     slice_instrs);
  std::vector<std::uint64_t> per_round(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    per_round[i] =
        std::max<std::uint64_t>(1, (items_[i].instrs + rounds - 1) / rounds);
  }

  bool any = true;
  for (bool first_round = true; any; first_round = false) {
    any = false;
    for (std::size_t idx = 0; idx < items_.size(); ++idx) {
      Item& item = items_[idx];
      const std::uint64_t left = item.instrs - item.charged;
      // An item is done once its instructions are charged; a refs-only item
      // drains its whole stream in one slice of the first round.
      if (left == 0 && !first_round) continue;
      any = true;

      // Jittered slice size: constant slices alias with the snapshot
      // period and every snapshot would land in the same item, badly
      // skewing the sampled mixture (a real sampling profiler's timer
      // jitter provides the same decorrelation).
      const auto jittered = static_cast<std::uint64_t>(
          static_cast<double>(per_round[idx]) *
          ctx.rng().next_double(0.6, 1.4));
      const std::uint64_t step =
          std::min(left, std::max<std::uint64_t>(jittered, 1));
      // References proportional to instruction progress: the slice carries
      // the stream up to total · (charged + step) / instrs, so the last
      // slice takes all that remain.
      const std::uint64_t total = item.stream.total_refs();
      const std::uint64_t refs =
          item.instrs == 0
              ? total
              : static_cast<std::uint64_t>(
                    static_cast<__uint128_t>(total) * (item.charged + step) /
                        item.instrs -
                    static_cast<__uint128_t>(total) * item.charged /
                        item.instrs);

      // MethodScope is non-movable; push/pop the frame chain manually.
      for (jvm::MethodId m : item.frames) ctx.stack().push(m);
      ctx.execute(step, item.stream, refs);
      for (std::size_t i = 0; i < item.frames.size(); ++i) ctx.stack().pop();
      item.charged += step;
    }
  }
  items_.clear();
}

void PipelineScope::finish() {
  if (finished_) return;
  finished_ = true;
  ctx_.set_batcher(previous_);
  if (!batcher_.empty()) {
    // Slices well below the snapshot interval so units sample the mixture.
    batcher_.flush(ctx_, ctx_.pipeline_slice_instrs());
  }
}

}  // namespace simprof::exec
