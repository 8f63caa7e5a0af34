// Access-pattern streams: the memory-behaviour vocabulary of the workload
// kernels.
//
// A stream yields line-granular references (one per distinct cache-line
// touch). Workload kernels describe their data-structure traffic with these
// streams — sequential scans over input splits, random probes into hash
// maps, Zipf-skewed probes (hot keys), strided column walks — and the memory
// system replays them through the cache hierarchy.
#pragma once

#include <cstdint>
#include <memory>

#include "hw/cache.h"
#include "support/rng.h"

namespace simprof::hw {

struct MemRef {
  LineAddr line = 0;
  bool write = false;
  /// Sequential/strided traffic is caught by the hardware prefetcher, so a
  /// DRAM miss on a prefetchable reference is charged a reduced penalty.
  bool prefetchable = false;
};

/// Pull-based reference generator. `next` returns false when exhausted.
///
/// Random/Zipf streams derive each reference from a counter-based hash of
/// (stream seed, position) instead of mutating a shared generator: the
/// constructor consumes exactly one draw from the parent Rng to capture the
/// seed. The golden seed-42 profile bytes depend on this derivation.
class AccessStream {
 public:
  virtual ~AccessStream() = default;
  virtual bool next(MemRef& out) = 0;
  /// Total references this stream will produce (for cycle apportioning).
  virtual std::uint64_t total_refs() const = 0;
};

/// Consecutive lines over [base_addr, base_addr + bytes).
class SequentialStream final : public AccessStream {
 public:
  SequentialStream(std::uint64_t base_addr, std::uint64_t bytes,
                   bool write = false);
  bool next(MemRef& out) override;
  std::uint64_t total_refs() const override { return lines_; }

 private:
  LineAddr first_;
  std::uint64_t lines_;
  std::uint64_t pos_ = 0;
  bool write_;
};

/// `touches` uniformly random lines within [base_addr, base_addr + bytes).
class RandomStream final : public AccessStream {
 public:
  RandomStream(std::uint64_t base_addr, std::uint64_t bytes,
               std::uint64_t touches, Rng& rng, bool write = false,
               double write_fraction = -1.0);
  bool next(MemRef& out) override;
  std::uint64_t total_refs() const override { return touches_; }

 private:
  LineAddr first_;
  std::uint64_t lines_;
  std::uint64_t touches_;
  std::uint64_t pos_ = 0;
  std::uint64_t seed_;
  bool write_;
  double write_fraction_;
};

/// Zipf-skewed random lines (hot-key hash-map behaviour). The skew is applied
/// over line indices directly: low indices are hot.
class ZipfStream final : public AccessStream {
 public:
  ZipfStream(std::uint64_t base_addr, std::uint64_t bytes,
             std::uint64_t touches, double skew, Rng& rng,
             bool write = false);
  bool next(MemRef& out) override;
  std::uint64_t total_refs() const override { return touches_; }

 private:
  LineAddr first_;
  std::uint64_t lines_;
  std::uint64_t touches_;
  std::uint64_t pos_ = 0;
  double skew_;
  std::uint64_t seed_;
  bool write_;
};

/// Every `stride_lines`-th line over a region (column walks, pointer-free
/// gathers with regular structure — prefetchable).
class StridedStream final : public AccessStream {
 public:
  StridedStream(std::uint64_t base_addr, std::uint64_t bytes,
                std::uint64_t stride_lines, bool write = false);
  bool next(MemRef& out) override;
  std::uint64_t total_refs() const override { return refs_; }

 private:
  LineAddr first_;
  std::uint64_t stride_;
  std::uint64_t refs_;
  std::uint64_t pos_ = 0;
  bool write_;
};

/// Bump allocator handing out non-overlapping address regions for the
/// simulated data structures of one workload run.
class AddressSpace {
 public:
  /// Reserve `bytes` (rounded up to a line) and return the base address.
  std::uint64_t allocate(std::uint64_t bytes);

  std::uint64_t bytes_allocated() const { return next_; }

 private:
  std::uint64_t next_ = kLineBytes;  // keep 0 unused as a sentinel
};

}  // namespace simprof::hw
