#include "hw/mav.h"

#include <bit>

#include "support/assert.h"

namespace simprof::hw {

std::size_t reuse_bucket(std::uint64_t distance) {
  if (distance == 0) return 0;
  const auto width = static_cast<std::size_t>(std::bit_width(distance));
  return width < kColdBucket - 1 ? width : kColdBucket - 1;
}

std::uint64_t MavBlock::total() const {
  std::uint64_t t = 0;
  for (std::size_t b = 0; b < kReuseBuckets; ++b) t += counts[b];
  return t;
}

namespace {

constexpr std::size_t kInitialSlots = 1024;  // power of two
constexpr std::uint32_t kInitialTree = 1024;  // power of two
/// Fibonacci hashing: the top bits of line·2⁶⁴/φ index the table.
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

}  // namespace

ReuseTracker::ReuseTracker(unsigned stamp_bits)
    : slots_(kInitialSlots),
      shift_(64 - static_cast<unsigned>(std::countr_zero(kInitialSlots))),
      bit_(kInitialTree + 1, 0) {
  SIMPROF_EXPECTS(stamp_bits >= 1 && stamp_bits <= 32,
                  "generation stamp width must be in [1, 32] bits");
  max_stamp_ = static_cast<std::uint32_t>((std::uint64_t{1} << stamp_bits) - 1);
}

std::uint32_t ReuseTracker::prefix(std::uint32_t i) const {
  std::uint32_t s = 0;
  for (; i > 0; i &= i - 1) s += bit_[i];
  return s;
}

// `delta` is added modulo 2³², so ~0u removes a mark.
void ReuseTracker::add(std::uint32_t i, std::uint32_t delta) {
  const std::size_t n = bit_.size();
  for (std::size_t j = i; j < n; j += j & (~j + 1)) bit_[j] += delta;
}

void ReuseTracker::grow_tree() {
  // Double the logical size P (a power of two). Node 2P covers [1, 2P],
  // whose only marks sit in [1, P] — exactly node P's range — and the new
  // nodes between cover only unused positions, so they start at zero.
  const std::size_t p = bit_.size() - 1;
  SIMPROF_EXPECTS(p < (std::size_t{1} << 31),
                  "a sampling unit exceeds 2^31 line touches");
  bit_.resize(2 * p + 1, 0);
  bit_[2 * p] = bit_[p];
}

void ReuseTracker::grow_table() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.stamp != stamp_) continue;
    std::size_t i = (s.line * kGolden) >> shift_;
    while (slots_[i].stamp == stamp_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void ReuseTracker::record(LineAddr line, AccessLevel level) {
  ++now_;
  if (now_ >= bit_.size()) grow_tree();
  // Keep the load factor at most 1/2, so probe runs stay short.
  if (2 * (static_cast<std::size_t>(distinct_) + 1) > slots_.size()) {
    grow_table();
  }

  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (line * kGolden) >> shift_;
  for (;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.stamp != stamp_) {
      s = Slot{line, now_, stamp_};
      ++distinct_;
      ++block_.counts[kColdBucket];
      break;
    }
    if (s.line == line) {
      // Every line's most recent position carries one mark and all of them
      // sit before now_, so the distinct lines touched strictly between the
      // previous touch and now are the marks after t0.
      const std::uint32_t t0 = s.time;
      ++block_.counts[reuse_bucket(distinct_ - prefix(t0))];
      add(t0, ~std::uint32_t{0});
      s.time = now_;
      break;
    }
  }
  add(now_, 1);
  ++block_.counts[kReuseBuckets + static_cast<std::size_t>(level)];
}

void ReuseTracker::reset() {
  if (now_ == 0) return;  // nothing recorded: block_ is already zero
  block_ = MavBlock{};
  distinct_ = 0;
  now_ = 0;
  bit_.assign(kInitialTree + 1, 0);
  if (stamp_ == max_stamp_) {
    // Wraparound: stale slots could carry any stamp, so clear them all.
    for (Slot& s : slots_) s.stamp = 0;
    stamp_ = 1;
  } else {
    ++stamp_;
  }
}

}  // namespace simprof::hw
