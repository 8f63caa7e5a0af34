// Metrics registry: named counters, gauges and log-bucketed quantile
// histograms for the profiling pipeline.
//
// Hot-path design: counter increments and histogram observations are
// lock-free — each metric keeps kMetricShards cache-line-aligned atomic
// cells and a thread updates the cell indexed by its thread tag, so threads
// on different shards never contend. All sharded state is integral, so the
// snapshot merge (a relaxed-load sum over shards in shard order) yields the
// same totals for any thread count and any interleaving — the merge is
// deterministic by construction. Gauges are single atomic doubles
// (set/add), intended for single-writer summary values.
//
// Registration (metrics().counter("name")) takes a mutex; hot paths hoist
// the returned handle into a local/static reference.
//
// Determinism contract: metrics never read RNG state and never feed back
// into any computation — collection cannot perturb results.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simprof::obs {

inline constexpr std::size_t kMetricShards = 16;

/// Shard index for the calling thread (thread tag mod kMetricShards).
std::size_t this_thread_shard();

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[this_thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }

  /// Sum over shards — exact and order-independent (integer adds commute).
  std::uint64_t value() const noexcept;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void reset() noexcept;

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kMetricShards> cells_;
  std::string name_;
};

/// Last-write-wins double (set) with an atomic add. Meant for single-writer
/// summary values (utilization, sizes); not sharded.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> v_{0.0};
  std::string name_;
};

/// Log-bucketed (HDR-style) histogram with deterministic quantile
/// estimation — the latency/size workhorse of the run ledger.
///
/// Bucketing is log-linear over the double's binary exponent: every octave
/// [2^e, 2^(e+1)) splits into kSubBuckets equal sub-buckets, giving a fixed
/// ≤ 1/kSubBuckets relative quantile error over [2^kMinExp, 2^kMaxExp)
/// (≈ 1e-6 .. 1.7e13 — ns..hours of time, bytes..TBs of size). Values
/// below the range (and ≤ 0) land in the underflow bucket, values at or
/// above it in the overflow bucket; NaN observations are dropped and
/// counted (nonfinite()).
///
/// Determinism contract: the bucket index is computed with std::frexp
/// (exact exponent/mantissa split — no libm rounding), bucket counts are
/// sharded integer cells merged by summation, and min/max are commutative
/// CAS updates, so merged counts, min/max, and every quantile are
/// bit-identical for any thread count and any interleaving of the same
/// observation multiset.
class QuantileHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // per octave
  static constexpr int kMinExp = -20;  ///< smallest bucketed octave, 2^-20
  static constexpr int kMaxExp = 44;   ///< first overflow value, 2^44
  /// Underflow + log-linear range + overflow.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void observe(double v) noexcept;

  /// Bucket index a value lands in (0 = underflow, kBuckets-1 = overflow).
  static std::size_t bucket_index(double v) noexcept;
  /// Exclusive upper bound of a non-overflow bucket (exact power-of-two
  /// arithmetic; the value a quantile in this bucket reports).
  static double bucket_upper_bound(std::size_t index) noexcept;

  /// Merged per-bucket totals, length kBuckets — exact for any interleaving.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  std::uint64_t nonfinite() const noexcept;

  /// Exact smallest / largest finite observation (0 when empty).
  double min() const noexcept;
  double max() const noexcept;

  /// Quantile estimate at q ∈ [0, 1] (nearest-rank over merged buckets,
  /// reported as the bucket's upper bound clamped into [min, max] — a
  /// single-sample histogram therefore reports the sample exactly). 0 when
  /// empty. Bit-identical for any thread count.
  double quantile(double q) const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit QuantileHistogram(std::string name);
  void reset() noexcept;

  /// Shard-major cells (shard × kBuckets): a thread walks only its own
  /// contiguous block, so shards never false-share.
  std::vector<std::atomic<std::uint64_t>> cells_;
  std::atomic<std::uint64_t> nonfinite_{0};
  std::atomic<std::uint64_t> min_bits_;  ///< double bits, CAS-min
  std::atomic<std::uint64_t> max_bits_;  ///< double bits, CAS-max
  std::string name_;
};

class MetricsRegistry {
 public:
  /// Find-or-create. Handles are stable for the process lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  QuantileHistogram& quantile_histogram(std::string_view name);

  /// Merged (name, value) snapshot of every counter, sorted by name — the
  /// run ledger's source for derived sections (checkpoint health etc.).
  std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot() const;

  /// Deterministic JSON snapshot: metrics sorted by name, sharded cells
  /// merged by integer summation. No trailing newline, so the manifest and
  /// the flight record embed it verbatim.
  std::string to_json() const;

  /// Zero every registered metric (handles stay valid). Test support.
  void reset();

 private:
  struct Impl;
  Impl& impl() const;
};

/// The process-wide registry (leaky singleton — safe from static dtors).
MetricsRegistry& metrics();

}  // namespace simprof::obs
