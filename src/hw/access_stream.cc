#include "hw/access_stream.h"

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

SequentialStream::SequentialStream(std::uint64_t base_addr,
                                   std::uint64_t bytes, bool write)
    : first_(to_line(base_addr)), lines_(region_lines(bytes)), write_(write) {}

bool SequentialStream::next(MemRef& out) {
  if (pos_ >= lines_) return false;
  out = MemRef{first_ + pos_, write_, /*prefetchable=*/true};
  ++pos_;
  return true;
}

RandomStream::RandomStream(std::uint64_t base_addr, std::uint64_t bytes,
                           std::uint64_t touches, Rng& rng, bool write,
                           double write_fraction)
    : first_(to_line(base_addr)),
      lines_(region_lines(bytes)),
      touches_(touches),
      seed_(rng.next_u64()),
      write_(write),
      write_fraction_(write_fraction) {
  SIMPROF_EXPECTS(lines_ > 0, "empty region");
}

bool RandomStream::next(MemRef& out) {
  if (pos_ >= touches_) return false;
  // idx = floor(hash / 2^64 · N) via the 128-bit multiply-shift trick:
  // unbiased enough for traffic shaping and, unlike next_below's rejection
  // loop, a pure function of position.
  const std::uint64_t h = hash_at(seed_, pos_);
  const auto idx = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * lines_) >> 64);
  const bool w =
      write_fraction_ >= 0.0
          ? to_unit_double(hash_at(seed_ ^ kWriteLaneSalt, pos_)) <
                write_fraction_
          : write_;
  ++pos_;
  out = MemRef{first_ + idx, w, /*prefetchable=*/false};
  return true;
}

ZipfStream::ZipfStream(std::uint64_t base_addr, std::uint64_t bytes,
                       std::uint64_t touches, double skew, Rng& rng,
                       bool write)
    : first_(to_line(base_addr)),
      lines_(region_lines(bytes)),
      touches_(touches),
      skew_(skew),
      seed_(rng.next_u64()),
      write_(write) {
  SIMPROF_EXPECTS(lines_ > 0, "empty region");
  SIMPROF_EXPECTS(skew_ >= 0.0 && skew_ < 1.0,
                  "ZipfStream uses inverse-power sampling; skew in [0,1)");
}

bool ZipfStream::next(MemRef& out) {
  if (pos_ >= touches_) return false;
  // Approximate Zipf via inverse power transform of a uniform draw:
  // idx = floor(N · u^(1/(1-s))). Exact Zipf tables are too large for
  // multi-GB regions; this preserves the hot-head/long-tail shape.
  const double u = to_unit_double(hash_at(seed_, pos_));
  ++pos_;
  const double x = std::pow(u, 1.0 / (1.0 - skew_));
  auto idx = static_cast<std::uint64_t>(x * static_cast<double>(lines_));
  if (idx >= lines_) idx = lines_ - 1;
  out = MemRef{first_ + idx, write_, /*prefetchable=*/false};
  return true;
}

StridedStream::StridedStream(std::uint64_t base_addr, std::uint64_t bytes,
                             std::uint64_t stride_lines, bool write)
    : first_(to_line(base_addr)),
      stride_(stride_lines == 0 ? 1 : stride_lines),
      refs_((region_lines(bytes) + stride_ - 1) / stride_),
      write_(write) {}

bool StridedStream::next(MemRef& out) {
  if (pos_ >= refs_) return false;
  out = MemRef{first_ + pos_ * stride_, write_, /*prefetchable=*/true};
  ++pos_;
  return true;
}

std::uint64_t AddressSpace::allocate(std::uint64_t bytes) {
  const std::uint64_t base = next_;
  const std::uint64_t lines = region_lines(bytes == 0 ? 1 : bytes);
  next_ += lines * kLineBytes;
  return base;
}

}  // namespace simprof::hw
