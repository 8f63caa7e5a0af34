// Shadow call stacks.
//
// Workload kernels maintain their simulated thread's call stack with RAII
// MethodScope guards; SimProf's call-stack collector reads it through
// CallStack::frames() — the same shape as JVMTI GetStackTrace, which is all
// the real agent uses.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "jvm/method.h"

namespace simprof::jvm {

class CallStack {
 public:
  void push(MethodId m) { frames_.push_back(m); }
  void pop();

  std::size_t depth() const { return frames_.size(); }
  bool empty() const { return frames_.empty(); }

  /// Outermost frame first (index 0 = thread entry point).
  std::span<const MethodId> frames() const { return frames_; }

  /// Innermost (currently executing) frame.
  MethodId top() const;

  /// Overwrite the whole stack (checkpoint restore). Outermost frame first,
  /// matching frames().
  void restore_frames(std::vector<MethodId> frames) {
    frames_ = std::move(frames);
  }

 private:
  std::vector<MethodId> frames_;
};

/// RAII frame guard. Non-copyable, non-movable: a stack frame cannot outlive
/// or migrate out of its lexical scope.
class MethodScope {
 public:
  MethodScope(CallStack& stack, MethodId m) : stack_(stack) { stack_.push(m); }
  ~MethodScope() { stack_.pop(); }

  MethodScope(const MethodScope&) = delete;
  MethodScope& operator=(const MethodScope&) = delete;

 private:
  CallStack& stack_;
};

}  // namespace simprof::jvm
