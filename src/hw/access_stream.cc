#include "hw/access_stream.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"

namespace simprof::hw {
namespace {

LineAddr to_line(std::uint64_t byte_addr) { return byte_addr / kLineBytes; }

std::uint64_t region_lines(std::uint64_t bytes) {
  return (bytes + kLineBytes - 1) / kLineBytes;
}

/// Map a 64-bit hash to a uniform double in [0, 1) the same way
/// Rng::next_double does, so statistical shapes match the old stateful path.
double to_unit_double(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Salt separating a stream's "which line" hash lane from its "is it a
/// write" lane at the same position.
constexpr std::uint64_t kWriteLaneSalt = 0x77726974656c616eULL;

}  // namespace

AccessStream AccessStream::strided(std::uint64_t base_addr,
                                   std::uint64_t bytes,
                                   std::uint64_t stride_lines, bool write) {
  AccessStream s;
  s.kind_ = Kind::kStrided;
  s.write_ = write;
  s.first_ = to_line(base_addr);
  s.span_ = stride_lines == 0 ? 1 : stride_lines;
  s.count_ = (region_lines(bytes) + s.span_ - 1) / s.span_;
  return s;
}

AccessStream AccessStream::random(std::uint64_t base_addr,
                                  std::uint64_t bytes, std::uint64_t touches,
                                  Rng& rng, bool write,
                                  double write_fraction) {
  AccessStream s;
  s.kind_ = Kind::kRandom;
  s.write_ = write;
  s.count_ = touches;
  s.first_ = to_line(base_addr);
  s.span_ = region_lines(bytes);
  s.seed_ = rng.next_u64();
  s.shape_ = write_fraction;
  SIMPROF_EXPECTS(s.span_ > 0, "empty region");
  return s;
}

AccessStream AccessStream::zipf(std::uint64_t base_addr, std::uint64_t bytes,
                                std::uint64_t touches, double skew, Rng& rng,
                                bool write) {
  AccessStream s;
  s.kind_ = Kind::kZipf;
  s.write_ = write;
  s.count_ = touches;
  s.first_ = to_line(base_addr);
  s.span_ = region_lines(bytes);
  s.seed_ = rng.next_u64();
  SIMPROF_EXPECTS(s.span_ > 0, "empty region");
  SIMPROF_EXPECTS(skew >= 0.0 && skew < 1.0,
                  "Zipf streams use inverse-power sampling; skew in [0,1)");
  s.shape_ = 1.0 / (1.0 - skew);
  return s;
}

AccessStream AccessStream::replay(std::span<const MemRef> tape) {
  AccessStream s;
  s.kind_ = Kind::kReplay;
  s.count_ = tape.size();
  s.tape_ = tape.data();
  return s;
}

std::size_t AccessStream::take(MemRef* out, std::size_t max) {
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(max, count_ - pos_));
  const std::uint64_t p = pos_;
  switch (kind_) {
    case Kind::kStrided:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = MemRef{first_ + (p + i) * span_, write_,
                        /*prefetchable=*/true};
      }
      break;
    case Kind::kRandom:
      for (std::size_t i = 0; i < n; ++i) {
        // idx = floor(hash / 2^64 · N) via the 128-bit multiply-shift trick:
        // unbiased enough for traffic shaping and, unlike next_below's
        // rejection loop, a pure function of position.
        const std::uint64_t h = hash_at(seed_, p + i);
        const auto idx = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(h) * span_) >> 64);
        const bool w =
            shape_ >= 0.0
                ? to_unit_double(hash_at(seed_ ^ kWriteLaneSalt, p + i)) <
                      shape_
                : write_;
        out[i] = MemRef{first_ + idx, w, /*prefetchable=*/false};
      }
      break;
    case Kind::kZipf:
      for (std::size_t i = 0; i < n; ++i) {
        // Approximate Zipf via inverse power transform of a uniform draw:
        // idx = floor(N · u^(1/(1-s))). Exact Zipf tables are too large for
        // multi-GB regions; this preserves the hot-head/long-tail shape.
        const double u = to_unit_double(hash_at(seed_, p + i));
        const double x = std::pow(u, shape_);
        auto idx = static_cast<std::uint64_t>(x * static_cast<double>(span_));
        if (idx >= span_) idx = span_ - 1;
        out[i] = MemRef{first_ + idx, write_, /*prefetchable=*/false};
      }
      break;
    case Kind::kReplay:
      std::copy_n(tape_ + p, n, out);
      break;
  }
  pos_ += n;
  return n;
}

std::uint64_t AddressSpace::allocate(std::uint64_t bytes) {
  const std::uint64_t base = next_;
  const std::uint64_t lines = region_lines(bytes == 0 ? 1 : bytes);
  // Every line handed out stays below kLineLimit, so caches keep 32-bit
  // tags without checking each access.
  SIMPROF_EXPECTS(lines <= kLineLimit - next_ / kLineBytes,
                  "address space exhausted: line addresses must stay below "
                  "2^32 - 1");
  next_ += lines * kLineBytes;
  return base;
}

}  // namespace simprof::hw
