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
constexpr std::size_t kInitialTree = 1024;  // power of two

}  // namespace

ReuseTracker::ReuseTracker(unsigned stamp_bits)
    : slots_(kInitialSlots),
      shift_(64 - static_cast<unsigned>(std::countr_zero(kInitialSlots))),
      bit_(kInitialTree + 1, 0) {
  SIMPROF_EXPECTS(stamp_bits >= 1 && stamp_bits <= 32,
                  "generation stamp width must be in [1, 32] bits");
  max_stamp_ = static_cast<std::uint32_t>((std::uint64_t{1} << stamp_bits) - 1);
}

// Marks in (t0, now_] as prefix(now_) − prefix(t0), with both walks stopped
// where they meet: clearing low bits takes each to the common high-bit
// prefix of now_ and t0, so the cost is O(log(now_ − t0)), not O(log now_).
// Sums are modulo 2³², like the nodes.
std::uint32_t ReuseTracker::marks_after(std::uint32_t t0) const {
  std::uint32_t s = 0;
  std::uint32_t r = now_;
  while (r > t0) {
    s += bit_[r];
    r &= r - 1;
  }
  for (; t0 > r; t0 &= t0 - 1) s -= bit_[t0];
  return s;
}

// Appends timestamp now_ + 1 carrying a mark. Node t covers
// (t − lowbit(t), t], which its children t − 2^j (2^j < lowbit(t)) cover
// exactly, so it is 1 plus their sums: amortised O(1), and it overwrites
// whatever a longer earlier unit left at t.
void ReuseTracker::append_mark() {
  const std::uint32_t t = ++now_;
  if (t >= bit_.size()) {
    // Timestamps [1, P] for a power of two P, so a unit of exactly 2^k
    // touches needs no larger tree.
    SIMPROF_EXPECTS(t < (std::uint32_t{1} << 31),
                    "a sampling unit reaches 2^31 line touches");
    bit_.resize(2 * (bit_.size() - 1) + 1);
  }
  std::uint32_t v = 1;
  const std::uint32_t low = t & (~t + 1);
  for (std::uint32_t c = 1; c < low; c <<= 1) v += bit_[t - c];
  bit_[t] = v;
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
  // Keep the load factor at most 1/2, so probe runs stay short.
  if (2 * (static_cast<std::size_t>(distinct_) + 1) > slots_.size()) {
    grow_table();
  }

  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (line * kGolden) >> shift_;
  for (;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.stamp != stamp_) {
      s = Slot{line, now_ + 1, stamp_};
      ++distinct_;
      ++block_.counts[kColdBucket];
      break;
    }
    if (s.line == line) {
      // Every line's most recent position carries one mark and all of them
      // sit at or before now_, so the distinct lines touched strictly
      // between the previous touch and this one are the marks after t0.
      const std::uint32_t t0 = s.time;
      ++block_.counts[reuse_bucket(marks_after(t0))];
      // Remove t0's mark from the live nodes; nodes past now_ are rebuilt
      // from their children when appended, so the walk stops at now_.
      for (std::size_t j = t0; j <= now_; j += j & (~j + 1)) --bit_[j];
      s.time = now_ + 1;
      break;
    }
  }
  append_mark();
  ++block_.counts[kReuseBuckets + static_cast<std::size_t>(level)];
}

void ReuseTracker::reset() {
  if (now_ == 0) return;  // nothing recorded: block_ is already zero
  block_ = MavBlock{};
  distinct_ = 0;
  now_ = 0;
  if (stamp_ == max_stamp_) {
    // Wraparound: stale slots could carry any stamp, so clear them all.
    for (Slot& s : slots_) s.stamp = 0;
    stamp_ = 1;
  } else {
    ++stamp_;
  }
}

}  // namespace simprof::hw
