#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.h"
#include "obs/log.h"

namespace simprof::obs {

std::size_t this_thread_shard() {
  return static_cast<std::size_t>(this_thread_tag()) % kMetricShards;
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

void Gauge::add(double delta) noexcept {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + delta,
                                   std::memory_order_relaxed)) {
  }
}

QuantileHistogram::QuantileHistogram(std::string name)
    : cells_(kBuckets * kMetricShards),
      min_bits_(std::bit_cast<std::uint64_t>(
          std::numeric_limits<double>::infinity())),
      max_bits_(std::bit_cast<std::uint64_t>(
          -std::numeric_limits<double>::infinity())),
      name_(std::move(name)) {}

std::size_t QuantileHistogram::bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // ≤ 0, -inf and NaN comparisons all land here
  if (v >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;  // incl. +inf
  int e = 0;
  const double m = std::frexp(v, &e);  // v = m·2^e, m ∈ [0.5, 1) — exact
  const int octave = e - 1;            // 2^octave ≤ v < 2^(octave+1)
  if (octave < kMinExp) return 0;
  // m·2 - 1 ∈ [0, 1) is exact (power-of-two scale + subtraction), so the
  // sub-bucket is pure integer truncation — no libm in the index.
  const int sub = static_cast<int>((m * 2.0 - 1.0) * kSubBuckets);
  return 1 + static_cast<std::size_t>(octave - kMinExp) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

double QuantileHistogram::bucket_upper_bound(std::size_t index) noexcept {
  if (index == 0) return std::ldexp(1.0, kMinExp);
  if (index >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  const std::size_t li = index - 1;
  const int octave = kMinExp + static_cast<int>(li >> kSubBucketBits);
  const int sub = static_cast<int>(li & (kSubBuckets - 1));
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, octave);
}

void QuantileHistogram::observe(double v) noexcept {
  if (std::isnan(v)) {
    nonfinite_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t bucket = bucket_index(v);
  cells_[this_thread_shard() * kBuckets + bucket].fetch_add(
      1, std::memory_order_relaxed);
  // Commutative CAS min/max — order-independent, so deterministic.
  std::uint64_t cur = min_bits_.load(std::memory_order_relaxed);
  while (v < std::bit_cast<double>(cur) &&
         !min_bits_.compare_exchange_weak(
             cur, std::bit_cast<std::uint64_t>(v),
             std::memory_order_relaxed)) {
  }
  cur = max_bits_.load(std::memory_order_relaxed);
  while (v > std::bit_cast<double>(cur) &&
         !max_bits_.compare_exchange_weak(
             cur, std::bit_cast<std::uint64_t>(v),
             std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> QuantileHistogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets, 0);
  for (std::size_t s = 0; s < kMetricShards; ++s) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      out[b] += cells_[s * kBuckets + b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t QuantileHistogram::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : bucket_counts()) total += c;
  return total;
}

std::uint64_t QuantileHistogram::nonfinite() const noexcept {
  return nonfinite_.load(std::memory_order_relaxed);
}

double QuantileHistogram::min() const noexcept {
  const double v = std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
  return std::isinf(v) ? 0.0 : v;
}

double QuantileHistogram::max() const noexcept {
  const double v = std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  return std::isinf(v) ? 0.0 : v;
}

double QuantileHistogram::quantile(double q) const {
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank on the merged counts: the smallest bucket whose cumulative
  // count reaches ceil(q·N).
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  std::size_t bucket = kBuckets - 1;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += counts[b];
    if (cum >= rank) {
      bucket = b;
      break;
    }
  }
  // Report the bucket's upper bound clamped into the exact observed range:
  // p100 is the true max, a single sample reports itself exactly.
  double v = bucket_upper_bound(bucket);
  v = std::min(v, max());
  v = std::max(v, min());
  return v;
}

void QuantileHistogram::reset() noexcept {
  for (auto& c : cells_) c.store(0, std::memory_order_relaxed);
  nonfinite_.store(0, std::memory_order_relaxed);
  min_bits_.store(
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
  max_bits_.store(
      std::bit_cast<std::uint64_t>(-std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
}

struct MetricsRegistry::Impl {
  template <typename Metric>
  using Map = std::map<std::string, std::unique_ptr<Metric>, std::less<>>;

  mutable std::mutex mu;
  Map<Counter> counters;
  Map<Gauge> gauges;
  Map<QuantileHistogram> quantiles;

  template <typename Metric>
  Metric& find_or_create(Map<Metric>& map, std::string_view name) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = map.find(name);
    if (it == map.end()) {
      it = map.emplace(std::string(name),
                       std::unique_ptr<Metric>(new Metric(std::string(name))))
               .first;
    }
    return *it->second;
  }
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl;  // leaky: usable from any static dtor
  return *impl;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return impl().find_or_create(impl().counters, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return impl().find_or_create(impl().gauges, name);
}

QuantileHistogram& MetricsRegistry::quantile_histogram(std::string_view name) {
  return impl().find_or_create(impl().quantiles, name);
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counters_snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) out.emplace_back(name, c->value());
  return out;
}

std::string MetricsRegistry::to_json() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::string out = "{\n";
  auto scalars = [&out](const char* section, const auto& map) {
    out += std::string("  \"") + section + "\": {";
    bool first = true;
    for (const auto& [name, metric] : map) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      json_append_quoted(out, name);
      out += ": " + json_number(metric->value());
    }
    out += first ? "},\n" : "\n  },\n";
  };
  scalars("counters", im.counters);
  scalars("gauges", im.gauges);
  out += "  \"quantile_histograms\": {";
  bool first = true;
  for (const auto& [name, q] : im.quantiles) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_quoted(out, name);
    out += ": {\"count\": " + json_number(q->count());
    out += ", \"nonfinite\": " + json_number(q->nonfinite());
    out += ", \"min\": " + json_number(q->min());
    out += ", \"max\": " + json_number(q->max());
    out += ", \"p50\": " + json_number(q->quantile(0.50));
    out += ", \"p90\": " + json_number(q->quantile(0.90));
    out += ", \"p99\": " + json_number(q->quantile(0.99));
    out += ", \"p999\": " + json_number(q->quantile(0.999));
    // Sparse (index, count) pairs: ~1k buckets, almost all empty.
    out += ", \"buckets\": [";
    const auto counts = q->bucket_counts();
    bool first_bucket = true;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "[" + json_number(static_cast<std::uint64_t>(i)) + ", " +
             json_number(counts[i]) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n}" : "\n  }\n}";
  return out;
}

void MetricsRegistry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, q] : im.quantiles) q->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace simprof::obs
