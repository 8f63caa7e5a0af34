// Observability layer tests: log gating/format, sharded metric merge
// determinism, quantile-histogram bucket edges, trace-JSON well-formedness
// (parsed by a mini JSON validator in-test), the run session's lifecycle,
// and the zero-perturbation contract — the pipeline's results are
// bit-identical with tracing on vs off.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/lab.h"
#include "core/phase.h"
#include "core/sampling.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "stats/kmeans.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace simprof::obs {
namespace {

// ---------------------------------------------------------------------------
// Mini JSON validator: recursive descent over the full value grammar.
// Accepts exactly one value followed by whitespace. Enough to assert that
// the trace / metrics emitters produce well-formed JSON without a library.

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool json_well_formed(std::string_view text) {
  return JsonValidator(text).valid();
}

TEST(JsonValidatorTest, SanityChecks) {
  EXPECT_TRUE(json_well_formed(R"({"a": [1, 2.5, -3e4], "b": "x\n", "c": {}})"));
  EXPECT_TRUE(json_well_formed("[]"));
  EXPECT_FALSE(json_well_formed(R"({"a": })"));
  EXPECT_FALSE(json_well_formed(R"({"a": 1,})"));
  EXPECT_FALSE(json_well_formed(R"("unterminated)"));
  EXPECT_FALSE(json_well_formed("{} trailing"));
}

// ---------------------------------------------------------------------------
// Logging.

/// Restores level + sink on scope exit so tests can't leak configuration.
class LogGuard {
 public:
  LogGuard() : saved_(log_level()) {}
  ~LogGuard() {
    set_log_sink(nullptr);
    set_log_level(saved_);
  }

 private:
  LogLevel saved_;
};

TEST(LogTest, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(to_string(LogLevel::kWarn), "warn");
}

TEST(LogTest, LevelGating) {
  LogGuard guard;
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
}

TEST(LogTest, SuppressedMessageDoesNotEvaluateStream) {
  LogGuard guard;
  set_log_level(LogLevel::kWarn);
  int evaluations = 0;
  auto touch = [&evaluations]() {
    ++evaluations;
    return "x";
  };
  SIMPROF_LOG(kDebug) << touch();
  EXPECT_EQ(evaluations, 0);
  SIMPROF_LOG(kError) << touch();
  EXPECT_EQ(evaluations, 1);
}

TEST(LogTest, LineFormatAndSinkRedirect) {
  LogGuard guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  set_log_level(LogLevel::kInfo);

  SIMPROF_LOG(kDebug) << "hidden";
  SIMPROF_LOG(kInfo) << "cache hit path=" << 42;

  const std::string out = sink.str();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("cache hit path=42"), std::string::npos);
  // Header: "[+S.mmms LEVEL rR/tT] " — check the stable pieces.
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("info"), std::string::npos);
  EXPECT_NE(out.find(" r0/t"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(MetricsTest, CounterMergeDeterministicAcrossThreadCounts) {
  Counter& c = metrics().counter("test.merge_determinism");
  constexpr std::uint64_t kPerThread = 10'000;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const std::uint64_t before = c.value();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&c] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(3);
      });
    }
    for (auto& t : pool) t.join();
    // The merged delta is exact for any thread count / interleaving.
    EXPECT_EQ(c.value() - before, threads * kPerThread * 3);
  }
}

TEST(MetricsTest, HandlesAreStable) {
  Counter& a = metrics().counter("test.stable_handle");
  Counter& b = metrics().counter("test.stable_handle");
  EXPECT_EQ(&a, &b);
  QuantileHistogram& h1 = metrics().quantile_histogram("test.stable_hist");
  QuantileHistogram& h2 = metrics().quantile_histogram("test.stable_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsTest, KMeansLloydIterationsIsAQuantileHistogram) {
  metrics().reset();
  stats::Matrix points(8, 1);
  for (std::size_t i = 0; i < 8; ++i) {
    points.at(i, 0) = i < 4 ? static_cast<double>(i) : 100.0 + i;
  }
  Rng rng(7);
  stats::KMeansConfig cfg;
  cfg.restarts = 1;
  const stats::KMeansResult res = stats::kmeans(points, 2, rng, cfg);
  ASSERT_GT(res.iterations, 0u);

  const auto parsed = parse_json(metrics().to_json());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* quantiles = parsed->find("quantile_histograms");
  ASSERT_NE(quantiles, nullptr);
  const JsonValue* iters = quantiles->find("kmeans.lloyd_iterations");
  ASSERT_NE(iters, nullptr);
  const double exact = static_cast<double>(res.iterations);
  EXPECT_DOUBLE_EQ(iters->number_or("count", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(iters->number_or("min", 0.0), exact);
  EXPECT_DOUBLE_EQ(iters->number_or("max", 0.0), exact);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge& g = metrics().gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(MetricsTest, JsonSnapshotWellFormed) {
  metrics().counter("test.json \"quoted\\name").increment();
  metrics().gauge("test.json_gauge").set(0.5);
  metrics().quantile_histogram("test.json_hist").observe(3.0);
  const std::string json = metrics().to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"quantile_histograms\""), std::string::npos);
  EXPECT_NE(json.find("test.json_hist"), std::string::npos);
  // One histogram type: no fixed-bucket section.
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing.

/// Stops + clears the trace buffer on scope exit.
struct TraceGuard {
  TraceGuard() { clear_trace(); }
  ~TraceGuard() {
    stop_tracing();
    clear_trace();
  }
};

TEST(TraceTest, DisabledEmittersBufferNothing) {
  TraceGuard guard;
  ASSERT_FALSE(trace_enabled());
  {
    ObsSpan span("should_not_appear", {{"x", 1}});
    VirtualLane lane;
    VirtualSpan vspan(lane, "virtual_off", 0);
    vspan.close(100);
    trace_virtual_instant(lane, "nor_virtual", 50);
    EXPECT_EQ(lane.top, nullptr);
  }
  const std::string json = trace_to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_EQ(json.find("should_not_appear"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_TRUE(span_rollup().empty());
}

TEST(TraceTest, ChromeTraceJsonWellFormedAndComplete) {
  TraceGuard guard;
  start_tracing();
  ASSERT_TRUE(trace_enabled());
  {
    ObsSpan outer("outer", {{"count", std::uint64_t{7}},
                            {"ratio", 0.5},
                            {"hit", true},
                            {"path", "a\"b\\c\n"}});
    ObsSpan inner("inner");
  }
  VirtualLane core1{kFirstVirtualPid, 1};
  {
    VirtualSpan task(core1, "stage/task", 2'000);
    task.close(6'000, {{"task", 0}, {"n", -3}});
  }
  trace_virtual_instant(core1, "migration", 4'000, {{"instructions", 123}});
  stop_tracing();

  const std::string json = trace_to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;

  // Chrome trace-event envelope plus both timelines' metadata.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("wall-clock"), std::string::npos);
  EXPECT_NE(json.find("virtual-clock"), std::string::npos);

  // Every emitted event is present; the string arg survived escaping.
  for (const char* name :
       {"outer", "inner", "stage/task", "migration"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("a\\\"b\\\\c\\n"), std::string::npos);

  // The virtual span lands at cycles / (GHz * 1000) microseconds: start
  // 2000 cycles @ 2 GHz = 1 µs, duration 4000 cycles = 2 µs.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(TraceTest, WriteTraceRoundTrip) {
  TraceGuard guard;
  start_tracing();
  { ObsSpan span("file_span"); }
  stop_tracing();

  const auto path = std::filesystem::temp_directory_path() /
                    ("simprof_obs_trace_" + std::to_string(::getpid()) +
                     ".json");
  ASSERT_TRUE(write_trace(path.string()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), trace_to_json());
  EXPECT_TRUE(json_well_formed(buf.str()));
  std::filesystem::remove(path);
}

TEST(TraceTest, ClearDropsBufferedEvents) {
  TraceGuard guard;
  start_tracing();
  { ObsSpan span("ephemeral"); }
  stop_tracing();
  ASSERT_NE(trace_to_json().find("ephemeral"), std::string::npos);
  clear_trace();
  EXPECT_EQ(trace_to_json().find("ephemeral"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Zero-perturbation: results are bit-identical with tracing on vs off.

core::ThreadProfile bit_identity_profile() {
  using simprof::testing::SyntheticPhase;
  return simprof::testing::synthetic_profile(
      {SyntheticPhase{120, 1.0, 0.05, jvm::MethodId{1}},
       SyntheticPhase{80, 2.5, 0.2, jvm::MethodId{2}},
       SyntheticPhase{40, 4.0, 0.1, jvm::MethodId{3}}});
}

void expect_same_model(const core::PhaseModel& x, const core::PhaseModel& y) {
  ASSERT_EQ(x.k, y.k);
  EXPECT_EQ(x.labels, y.labels);
  EXPECT_EQ(x.feature_names, y.feature_names);
  ASSERT_EQ(x.centers.rows(), y.centers.rows());
  ASSERT_EQ(x.centers.cols(), y.centers.cols());
  for (std::size_t r = 0; r < x.centers.rows(); ++r) {
    for (std::size_t c = 0; c < x.centers.cols(); ++c) {
      EXPECT_EQ(x.centers.at(r, c), y.centers.at(r, c));  // bitwise, no EPS
    }
  }
  EXPECT_EQ(x.representative_units, y.representative_units);
}

void expect_same_plan(const core::SamplePlan& x, const core::SamplePlan& y) {
  ASSERT_EQ(x.points.size(), y.points.size());
  for (std::size_t i = 0; i < x.points.size(); ++i) {
    EXPECT_EQ(x.points[i].unit_index, y.points[i].unit_index);
    EXPECT_EQ(x.points[i].phase, y.points[i].phase);
    EXPECT_EQ(x.points[i].weight, y.points[i].weight);
  }
  EXPECT_EQ(x.allocation, y.allocation);
  EXPECT_EQ(x.estimated_cpi, y.estimated_cpi);
  EXPECT_EQ(x.standard_error, y.standard_error);
}

TEST(BitIdentityTest, PhaseFormationAndSamplingUnperturbedByTracing) {
  const auto profile = bit_identity_profile();

  // Baseline: tracing off, logging quiet.
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  ASSERT_FALSE(trace_enabled());
  const auto model_off = core::form_phases(profile);
  const auto plan_off = core::simprof_sample(profile, model_off, 25, 7);

  // Same pipeline with tracing armed and verbose logging.
  TraceGuard trace_guard;
  set_log_level(LogLevel::kTrace);
  start_tracing();
  const auto model_on = core::form_phases(profile);
  const auto plan_on = core::simprof_sample(profile, model_on, 25, 7);
  stop_tracing();

  expect_same_model(model_off, model_on);
  expect_same_plan(plan_off, plan_on);

  // The traced run actually produced span events for the instrumented path.
  const std::string json = trace_to_json();
  EXPECT_NE(json.find("phase.form_phases"), std::string::npos);
  EXPECT_NE(json.find("choose_k"), std::string::npos);
  EXPECT_NE(json.find("sample.simprof"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lab cache provenance through the obs layer.

class ScratchDir {
 public:
  ScratchDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("simprof_obs_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const char* c_str() const { return path_.c_str(); }

 private:
  std::filesystem::path path_;
};

TEST(LabProvenanceTest, CacheHitAndMissRecordedInMetricsAndRun) {
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);

  ScratchDir dir;
  core::LabConfig cfg;
  cfg.scale = 0.05;
  cfg.graph_scale_override = 12;
  cfg.cache_dir = dir.c_str();

  Counter& hits = metrics().counter("lab.cache_hits");
  Counter& misses = metrics().counter("lab.cache_misses");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();

  core::WorkloadLab lab(cfg);
  const auto first = lab.run("wc_sp");
  EXPECT_FALSE(first.from_cache);
  EXPECT_FALSE(first.cache_path.empty());
  EXPECT_EQ(misses.value() - misses0, 1u);
  EXPECT_EQ(hits.value() - hits0, 0u);
  EXPECT_NE(sink.str().find("cache miss"), std::string::npos);

  const auto second = lab.run("wc_sp");
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.cache_path, first.cache_path);
  EXPECT_EQ(hits.value() - hits0, 1u);
  EXPECT_EQ(misses.value() - misses0, 1u);
  EXPECT_NE(sink.str().find("cache hit"), std::string::npos);

  // The cached reload is bit-identical to the fresh profile.
  ASSERT_EQ(first.profile.num_units(), second.profile.num_units());
  for (std::size_t u = 0; u < first.profile.num_units(); ++u) {
    const auto& a = first.profile.units[u];
    const auto& b = second.profile.units[u];
    EXPECT_EQ(a.unit_id, b.unit_id);
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.methods, b.methods);
    EXPECT_EQ(a.counts, b.counts);
  }
}

// ---------------------------------------------------------------------------
// QuantileHistogram: bucket edges, exactness guarantees, and the merge
// determinism contract (bit-identical for any thread count / interleaving).

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(QuantileHistogramTest, EmptyReportsZeros) {
  QuantileHistogram& h = metrics().quantile_histogram("test.qh_empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.nonfinite(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(QuantileHistogramTest, SingleSampleReportsItselfExactly) {
  QuantileHistogram& h = metrics().quantile_histogram("test.qh_single");
  h.observe(3.7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 3.7);
  EXPECT_DOUBLE_EQ(h.max(), 3.7);
  // The bucket upper bound is clamped into [min, max], so every quantile of
  // a one-sample histogram is the sample itself.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 3.7) << "q=" << q;
  }
}

TEST(QuantileHistogramTest, BucketIndexEdges) {
  using QH = QuantileHistogram;
  // ≤ 0 and below-range values land in the underflow bucket.
  EXPECT_EQ(QH::bucket_index(0.0), 0u);
  EXPECT_EQ(QH::bucket_index(-1.0), 0u);
  EXPECT_EQ(QH::bucket_index(std::ldexp(1.0, QH::kMinExp - 1)), 0u);
  // The range opens at 2^kMinExp (bucket 1) and overflows at 2^kMaxExp.
  EXPECT_EQ(QH::bucket_index(std::ldexp(1.0, QH::kMinExp)), 1u);
  EXPECT_EQ(QH::bucket_index(std::ldexp(1.0, QH::kMaxExp)), QH::kBuckets - 1);
  EXPECT_EQ(QH::bucket_index(std::numeric_limits<double>::infinity()),
            QH::kBuckets - 1);
  EXPECT_EQ(
      QH::bucket_index(std::nextafter(std::ldexp(1.0, QH::kMaxExp), 0.0)),
      QH::kBuckets - 2);

  // Sandwich invariant over the log-linear range: every value lies inside
  // its bucket's [lower, upper) and the index is monotone in the value.
  std::size_t prev = 0;
  for (const double v :
       {1e-5, 0.001, 0.5, 1.0, 1.0625, 3.7, 64.0, 1e6, 1e12}) {
    const std::size_t idx = QH::bucket_index(v);
    ASSERT_GT(idx, 0u) << v;
    ASSERT_LT(idx, QH::kBuckets - 1) << v;
    EXPECT_LT(v, QH::bucket_upper_bound(idx)) << v;
    EXPECT_GE(v, QH::bucket_upper_bound(idx - 1)) << v;
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(QuantileHistogramTest, QuantileWithinRelativeBucketResolution) {
  QuantileHistogram& h = metrics().quantile_histogram("test.qh_resolution");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Nearest-rank reports the rank-th sample's bucket upper bound, so the
  // estimate overshoots the exact quantile by at most one sub-bucket.
  const std::pair<double, double> cases[] = {
      {0.5, 500.0}, {0.9, 900.0}, {0.99, 990.0}};
  for (const auto& [q, exact] : cases) {
    const double est = h.quantile(q);
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE((est - exact) / exact,
              1.0 / QuantileHistogram::kSubBuckets + 1e-9)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);  // p100 clamps to the true max
}

TEST(QuantileHistogramTest, NanIsCountedNotBucketed) {
  QuantileHistogram& h = metrics().quantile_histogram("test.qh_nan");
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.nonfinite(), 2u);
  EXPECT_EQ(h.count(), 0u);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

/// The shared observation multiset for the merge-determinism test:
/// deterministic values spanning ~30 octaves with repeats.
double qh_sample_value(std::size_t i) {
  return std::ldexp(1.0 + static_cast<double>(i % 1000) / 1024.0,
                    static_cast<int>(i % 30) - 10);
}

TEST(QuantileHistogramTest, MergeDeterministicAcrossThreadCountsAndOrders) {
  constexpr std::size_t kN = 48'000;
  // Reference: one thread, ascending observation order.
  QuantileHistogram& ref = metrics().quantile_histogram("test.qh_merge_ref");
  for (std::size_t i = 0; i < kN; ++i) ref.observe(qh_sample_value(i));
  const auto ref_counts = ref.bucket_counts();

  for (const std::size_t threads : {2u, 4u, 8u}) {
    QuantileHistogram& h = metrics().quantile_histogram(
        "test.qh_merge_t" + std::to_string(threads));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      // Interleaved slices land on different shards per run; odd workers
      // walk their slice backwards so the interleaving differs from the
      // reference in every way the merge must be insensitive to.
      pool.emplace_back([&h, t, threads] {
        if (t % 2 == 0) {
          for (std::size_t i = t; i < kN; i += threads) {
            h.observe(qh_sample_value(i));
          }
        } else {
          std::size_t i = t + threads * ((kN - 1 - t) / threads);
          while (true) {
            h.observe(qh_sample_value(i));
            if (i == t) break;
            i -= threads;
          }
        }
      });
    }
    for (auto& th : pool) th.join();

    EXPECT_EQ(h.bucket_counts(), ref_counts) << threads << " threads";
    EXPECT_EQ(h.count(), ref.count());
    // min/max and every quantile are bit-identical, not merely close.
    EXPECT_EQ(dbits(h.min()), dbits(ref.min()));
    EXPECT_EQ(dbits(h.max()), dbits(ref.max()));
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(dbits(h.quantile(q)), dbits(ref.quantile(q)))
          << threads << " threads, q=" << q;
    }
  }
}

TEST(MetricsTest, QuantileHistogramInJsonSnapshot) {
  metrics().quantile_histogram("test.qh_json").observe(5.0);
  const std::string json = metrics().to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"quantile_histograms\""), std::string::npos);
  EXPECT_NE(json.find("test.qh_json"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON emission: non-finite accounting and byte-level escaping.

TEST(JsonTest, NonFiniteNumbersCountedAndEmittedAsZero) {
  LogGuard guard;  // the one-shot warn line goes to the sink, not stderr
  std::ostringstream sink;
  set_log_sink(&sink);
  Counter& c = metrics().counter("obs.json_nonfinite");
  const std::uint64_t before = c.value();
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(c.value() - before, 3u);
  EXPECT_EQ(json_number(2.5), "2.5");
  EXPECT_EQ(c.value() - before, 3u);  // finite values don't count
}

TEST(JsonTest, QuoteEscapesControlBytesAndPassesHighBytesThrough) {
  EXPECT_EQ(json_quote("a\"b\\c\n\t\r"), "\"a\\\"b\\\\c\\n\\t\\r\"");
  EXPECT_EQ(json_quote(std::string_view("\x01\x02\x1f", 3)),
            "\"\\u0001\\u0002\\u001f\"");
  // UTF-8 multi-byte sequences (bytes ≥ 0x80) pass through byte-for-byte,
  // and DEL (0x7f) is legal unescaped JSON.
  EXPECT_EQ(json_quote("caf\xc3\xa9 \xe2\x9c\x93"),
            "\"caf\xc3\xa9 \xe2\x9c\x93\"");
  EXPECT_EQ(json_quote("\x7f"), "\"\x7f\"");
  // An embedded NUL is escaped, not truncated.
  EXPECT_EQ(json_quote(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
  EXPECT_TRUE(json_well_formed(json_quote(std::string_view("\x00\x1b\xff", 3))));
}

// ---------------------------------------------------------------------------
// Span rollup: self/inclusive aggregation and the thread-count contract.

TEST(SpanRollupTest, SelfTimeCountsAndPoolExclusion) {
  TraceGuard guard;
  start_tracing();
  // Virtual spans make the arithmetic exact: µs = cycles / 2000 at 2 GHz.
  VirtualLane core1{kFirstVirtualPid, 1};
  VirtualLane core2{kFirstVirtualPid, 2};
  {
    VirtualSpan stage(core1, "stage", 0);  // 4 µs, nests the task
    {
      VirtualSpan task(core1, "stage/task", 2'000);  // 2 µs inside it
      task.close(6'000);
    }
    stage.close(8'000);
  }
  {
    VirtualSpan leaf(core1, "stage", 10'000);  // 2 µs, leaf
    leaf.close(14'000);
  }
  {
    // No name is excluded: a pool.* span rolls up like any other.
    VirtualSpan pool(core2, "pool.parallel_for", 0);
    pool.close(2'000);
  }
  stop_tracing();

  const auto rows = span_rollup();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "pool.parallel_for");
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_DOUBLE_EQ(rows[0].total_us, 1.0);
  EXPECT_EQ(rows[1].name, "stage");
  EXPECT_TRUE(rows[1].virtual_timeline);
  EXPECT_EQ(rows[1].count, 2u);
  EXPECT_DOUBLE_EQ(rows[1].total_us, 6.0);
  EXPECT_DOUBLE_EQ(rows[1].self_us, 4.0);  // 6 µs minus the nested 2 µs
  EXPECT_DOUBLE_EQ(rows[1].max_us, 4.0);
  EXPECT_EQ(rows[2].name, "stage/task");
  EXPECT_EQ(rows[2].count, 1u);
  EXPECT_DOUBLE_EQ(rows[2].total_us, 2.0);
  EXPECT_DOUBLE_EQ(rows[2].self_us, 2.0);
}

TEST(SpanRollupTest, UnclosedVirtualSpanRecordsNothing) {
  TraceGuard guard;
  start_tracing();
  VirtualLane core0;
  {
    VirtualSpan task(core0, "task", 0);
    {
      VirtualSpan unwound(core0, "unwound", 2'000);  // never closed
      EXPECT_EQ(core0.top, &unwound);
    }
    EXPECT_EQ(core0.top, &task);
    task.close(4'000);
    task.close(8'000);  // a second close does nothing
  }
  EXPECT_EQ(core0.top, nullptr);
  stop_tracing();

  const auto rows = span_rollup();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "task");
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_DOUBLE_EQ(rows[0].total_us, 2.0);
  EXPECT_DOUBLE_EQ(rows[0].self_us, 2.0);  // the unwound child is not charged
}

TEST(SpanRollupTest, SpansMeetingAtOneCycleDoNotNest) {
  TraceGuard guard;
  start_tracing();
  // A write span ending at the cycle the next task starts, as on a core
  // lane between two waves. In floating µs 8002/2000 + 1999/2000 rounds
  // past 10001/2000, so comparing µs would charge the task to the write.
  VirtualLane core0;
  {
    VirtualSpan write(core0, "write", 8'002);
    write.close(10'001);
  }
  {
    VirtualSpan task(core0, "task", 10'001);
    task.close(20'001);
  }
  stop_tracing();

  const auto rows = span_rollup();
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.count, 1u) << row.name;
    EXPECT_GE(row.self_us, 0.0) << row.name;
    EXPECT_LE(row.self_us, row.total_us) << row.name;
    EXPECT_DOUBLE_EQ(row.self_us, row.total_us) << row.name;
  }
}

TEST(SpanRollupTest, NameCountIdenticalAcrossThreadCounts) {
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  const auto profile = bit_identity_profile();
  const std::size_t saved = support::default_thread_count();

  const auto collect = [&profile](std::size_t threads) {
    support::set_default_thread_count(threads);
    TraceGuard guard;
    start_tracing();
    const auto model = core::form_phases(profile);
    core::simprof_sample(profile, model, 25, 7);
    stop_tracing();
    std::vector<std::tuple<bool, std::string, std::uint64_t>> out;
    for (const auto& row : span_rollup()) {
      out.emplace_back(row.virtual_timeline, row.name, row.count);
    }
    return out;
  };

  const auto serial = collect(1);
  const auto parallel4 = collect(4);
  support::set_default_thread_count(saved);

  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel4);
  // Scheduling internals are excluded from the rollup by contract.
  for (const auto& [virt, name, count] : parallel4) {
    EXPECT_NE(name.rfind("pool.", 0), 0u) << name;
  }
}

/// The rollup's virtual-timeline rows.
std::vector<SpanRollupRow> virtual_rows() {
  std::vector<SpanRollupRow> out;
  for (auto& row : span_rollup()) {
    if (row.virtual_timeline) out.push_back(std::move(row));
  }
  return out;
}

/// Runs one two-task stage of 30k instructions per task on a fresh cluster.
std::uint32_t run_tiny_stage() {
  exec::Cluster cluster(simprof::testing::tiny_cluster_config());
  cluster.run_stage("tiny", 2, [](std::size_t, exec::ExecutorContext& ctx) {
    ctx.compute(30'000);
  });
  return cluster.trace_pid();
}

TEST(SpanRollupTest, ClustersOfOneProcessDoNotNestAcrossEachOther) {
  TraceGuard guard;
  start_tracing();
  run_tiny_stage();
  stop_tracing();
  const auto one = virtual_rows();
  ASSERT_EQ(one.size(), 2u);  // "tiny" and "tiny/task"
  clear_trace();

  // Both clusters start their clocks at cycle 0 on lanes with the same core
  // ids; neither may nest inside the other, and each has its own trace pid.
  start_tracing();
  const std::uint32_t pid_a = run_tiny_stage();
  const std::uint32_t pid_b = run_tiny_stage();
  stop_tracing();
  EXPECT_NE(pid_a, pid_b);
  const auto two = virtual_rows();
  ASSERT_EQ(two.size(), one.size());
  for (std::size_t i = 0; i < two.size(); ++i) {
    EXPECT_EQ(two[i].name, one[i].name);
    EXPECT_EQ(two[i].count, 2 * one[i].count) << two[i].name;
    EXPECT_GT(one[i].total_us, 0.0) << two[i].name;
    EXPECT_DOUBLE_EQ(two[i].total_us, 2 * one[i].total_us) << two[i].name;
    EXPECT_DOUBLE_EQ(two[i].self_us, two[i].total_us) << two[i].name;
  }
  const std::string json = trace_to_json();
  for (const std::uint32_t pid : {pid_a, pid_b}) {
    const std::string process = "{\"name\": \"process_name\", \"ph\": \"M\", "
                                "\"pid\": " + std::to_string(pid) +
                                ", \"tid\": 0, \"args\": {\"name\": "
                                "\"virtual-clock\"}}";
    EXPECT_NE(json.find(process), std::string::npos) << pid;
  }
}

TEST(SpanRollupTest, ConcurrentNestedSpansRollUpExactly) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 500;
  TraceGuard guard;
  start_tracing(/*buffer_events=*/false);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      VirtualLane lane{kFirstVirtualPid, static_cast<std::uint32_t>(t)};
      for (std::uint64_t i = 0; i < kIters; ++i) {
        ObsSpan wall_outer("mt.wall_outer");
        ObsSpan wall_inner("mt.wall_inner");
        const std::uint64_t base = i * 10'000;
        VirtualSpan outer(lane, "mt.outer", base);  // 4 µs
        {
          VirtualSpan inner(lane, "mt.inner", base + 2'000);  // 2 µs
          inner.close(base + 6'000);
        }
        outer.close(base + 8'000);
      }
    });
  }
  for (auto& th : threads) th.join();
  stop_tracing();

  const auto rows = span_rollup();
  ASSERT_EQ(rows.size(), 4u);
  constexpr std::uint64_t kSpans = kThreads * kIters;
  for (const auto& row : rows) {
    EXPECT_EQ(row.count, kSpans) << row.name;
    EXPECT_GE(row.self_us, 0.0) << row.name;
    EXPECT_LE(row.self_us, row.total_us) << row.name;
  }
  // Wall rows first: the inner span is the outer one's only child.
  EXPECT_EQ(rows[0].name, "mt.wall_inner");
  EXPECT_DOUBLE_EQ(rows[0].self_us, rows[0].total_us);
  EXPECT_EQ(rows[1].name, "mt.wall_outer");
  EXPECT_NEAR(rows[1].self_us + rows[0].total_us, rows[1].total_us,
              1e-9 * rows[1].total_us);
  EXPECT_EQ(rows[2].name, "mt.inner");
  EXPECT_EQ(rows[2].total_us, 2.0 * kSpans);
  EXPECT_EQ(rows[2].self_us, 2.0 * kSpans);
  EXPECT_EQ(rows[2].max_us, 2.0);
  EXPECT_EQ(rows[3].name, "mt.outer");
  EXPECT_EQ(rows[3].total_us, 4.0 * kSpans);
  EXPECT_EQ(rows[3].self_us, 2.0 * kSpans);
  EXPECT_EQ(rows[3].max_us, 4.0);
  EXPECT_EQ(trace_to_json().find("mt."), std::string::npos);  // rows only
}

// ---------------------------------------------------------------------------
// Run ledger: manifest round-trip through the report parser.

/// Resets the process-global run ledger on scope exit.
struct LedgerGuard {
  LedgerGuard() { ledger().reset(); }
  ~LedgerGuard() { ledger().reset(); }
};

TEST(RunLedgerTest, ManifestRoundTripsThroughParser) {
  LedgerGuard guard;
  ledger().begin("simprof-test", "unit", {"--flag", "1"});
  ledger().set_config("seed", "42");
  ledger().set_config("workload", "grep_sp");
  ledger().set_quality("silhouette", 0.625);
  ledger().set_schema("cache", core::kLabCacheSchema);
  ledger().set_exit_code(3);

  const std::string doc = ledger().to_json();
  EXPECT_TRUE(json_well_formed(doc)) << doc;
  const auto parsed = parse_json(doc);
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->string_or("schema", ""), "simprof.manifest/1");
  EXPECT_EQ(parsed->string_or("tool", ""), "simprof-test");
  EXPECT_EQ(parsed->string_or("verb", ""), "unit");
  EXPECT_DOUBLE_EQ(parsed->number_or("exit_code", -1.0), 3.0);
  EXPECT_GE(parsed->number_or("duration_ms", -1.0), 0.0);

  const JsonValue* args = parsed->find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_EQ(args->as_array().size(), 2u);
  EXPECT_EQ(args->as_array()[0].as_string(), "--flag");

  const JsonValue* build = parsed->find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->string_or("git_sha", "").empty());
  EXPECT_FALSE(build->string_or("build_type", "").empty());
  EXPECT_DOUBLE_EQ(build->number_or("cache_schema", 0.0),
                   static_cast<double>(core::kLabCacheSchema));

  const JsonValue* config = parsed->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->string_or("seed", ""), "42");
  EXPECT_EQ(config->string_or("workload", ""), "grep_sp");

  const JsonValue* quality = parsed->find("quality");
  ASSERT_NE(quality, nullptr);
  EXPECT_DOUBLE_EQ(quality->number_or("silhouette", 0.0), 0.625);

  // The full metrics snapshot and the rollup ride along.
  const JsonValue* metrics_obj = parsed->find("metrics");
  ASSERT_NE(metrics_obj, nullptr);
  EXPECT_NE(metrics_obj->find("counters"), nullptr);
  const JsonValue* rollup = parsed->find("span_rollup");
  ASSERT_NE(rollup, nullptr);
  EXPECT_EQ(rollup->type(), JsonValue::Type::kArray);
  const JsonValue* ckpt = parsed->find("checkpoint");
  ASSERT_NE(ckpt, nullptr);
  EXPECT_NE(ckpt->find("cold_fallbacks"), nullptr);
  EXPECT_NE(ckpt->find("pruned_dirs"), nullptr);
}

TEST(RunLedgerTest, WriteHonorsOutputPathAndDisable) {
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  LedgerGuard guard;
  ScratchDir dir;

  ledger().begin("simprof-test", "unit", {});
  const std::string path = std::string(dir.c_str()) + "/nested/m.json";
  ledger().set_output_path(path);
  EXPECT_TRUE(ledger().enabled());
  ASSERT_TRUE(ledger().write());  // creates the parent directory
  const auto parsed = load_json_file(path);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string_or("schema", ""), "simprof.manifest/1");

  ledger().reset();
  ledger().begin("simprof-test", "unit", {});
  ledger().disable();
  EXPECT_FALSE(ledger().enabled());
  EXPECT_FALSE(ledger().write());
}

// ---------------------------------------------------------------------------
// Run session: the one lifecycle the CLI and every bench share.

RunSessionConfig session_config(const std::string& manifest_out) {
  RunSessionConfig config;
  config.tool = "simprof-test";
  config.verb = "unit";
  config.manifest_out = manifest_out;
  return config;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(RunSessionTest, NoManifestNoTraceOutWritesNothingAndNeverTraces) {
  LedgerGuard guard;
  TraceGuard trace_guard;
  ScratchDir dir;
  const std::string root = dir.c_str();
  std::filesystem::create_directories(root);
  {
    RunSessionConfig config = session_config(root + "/m.json");
    config.no_manifest = true;
    RunSession session(config);
    EXPECT_FALSE(trace_enabled());
    EXPECT_FALSE(ledger().enabled());
    session.flush(0);
  }
  EXPECT_TRUE(std::filesystem::is_empty(root));
}

TEST(RunSessionTest, TraceOutWritesValidTraceJson) {
  LedgerGuard guard;
  TraceGuard trace_guard;
  ScratchDir dir;
  const std::string root = dir.c_str();
  std::filesystem::create_directories(root);
  RunSessionConfig config = session_config("");
  config.no_manifest = true;
  config.trace_out = root + "/trace.json";
  {
    RunSession session(config);
    EXPECT_TRUE(trace_enabled());
    { ObsSpan span("session_span"); }
  }
  EXPECT_FALSE(trace_enabled());
  const std::string json = read_text(config.trace_out);
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("session_span"), std::string::npos);
}

TEST(RunSessionTest, ManifestWithoutTraceOutCollectsRowsOnly) {
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  LedgerGuard guard;
  TraceGuard trace_guard;
  ScratchDir dir;
  const std::string path = std::string(dir.c_str()) + "/m.json";
  {
    RunSession session(session_config(path));
    ASSERT_TRUE(trace_enabled());
    {
      ObsSpan outer("rows.outer", {{"x", 1}});
      ObsSpan inner("rows.inner");
    }
    VirtualLane lane;
    {
      VirtualSpan span(lane, "rows.virtual", 0);
      span.close(2'000, {{"task", 0}});
    }
    trace_virtual_instant(lane, "rows.migration", 1'000);

    const auto rows = span_rollup();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "rows.inner");
    EXPECT_EQ(rows[1].name, "rows.outer");
    EXPECT_EQ(rows[2].name, "rows.virtual");
    const auto trace = parse_json(trace_to_json());
    ASSERT_TRUE(trace.has_value());
    const JsonValue* events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->as_array().empty());
    EXPECT_EQ(metrics().gauge("obs.trace_events_buffered").value(), 0.0);
    session.flush(0);
  }
  const auto manifest = load_json_file(path);
  ASSERT_TRUE(manifest.has_value());
  const JsonValue* rollup = manifest->find("span_rollup");
  ASSERT_NE(rollup, nullptr);
  EXPECT_EQ(rollup->as_array().size(), 3u);
  const std::string text = read_text(path);
  EXPECT_NE(text.find("\"obs.trace_events_buffered\": 0"), std::string::npos);
  EXPECT_NE(text.find("\"trace.dropped_events\""), std::string::npos);
}

TEST(RunSessionTest, FlushRecordsExitCodeAndWritesManifestOnce) {
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  LedgerGuard guard;
  TraceGuard trace_guard;
  ScratchDir dir;
  const std::string path = std::string(dir.c_str()) + "/m.json";
  {
    RunSession session(session_config(path));
    EXPECT_TRUE(trace_enabled());  // the manifest's span rollup needs spans
    session.flush(1);
    const auto parsed = load_json_file(path);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->number_or("exit_code", -1.0), 1.0);

    std::filesystem::remove(path);
    session.flush(0);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));  // nor did the destructor
}

TEST(RunSessionTest, ConcurrentFlushesWriteOneManifest) {
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  LedgerGuard guard;
  TraceGuard trace_guard;
  ScratchDir dir;
  const std::string path = std::string(dir.c_str()) + "/m.json";
  {
    // A signal watcher and the exiting main thread both flush.
    RunSession session(session_config(path));
    std::vector<std::thread> watchers;
    for (int code = 1; code <= 4; ++code) {
      watchers.emplace_back([&session, code] { session.flush(code); });
    }
    session.flush(0);
    for (auto& t : watchers) t.join();

    const auto parsed = load_json_file(path);
    ASSERT_TRUE(parsed.has_value());
    const double code = parsed->number_or("exit_code", -1.0);
    EXPECT_GE(code, 0.0);
    EXPECT_LE(code, 4.0);
    std::filesystem::remove(path);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------------
// The report JSON parser.

TEST(JsonParserTest, ParsesScalarsStringsAndNesting) {
  const auto v = parse_json(
      R"({"a": [1, -2.5e3, true, null], "s": "hA\n", "o": {"k": "v"}})");
  ASSERT_TRUE(v.has_value());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 4u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), -2500.0);
  EXPECT_TRUE(a->as_array()[2].as_bool());
  EXPECT_TRUE(a->as_array()[3].is_null());
  EXPECT_EQ(v->string_or("s", ""), "hA\n");
  const JsonValue* o = v->find("o");
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->string_or("k", ""), "v");
  EXPECT_DOUBLE_EQ(v->number_or("missing", 7.5), 7.5);
  EXPECT_EQ(v->string_or("missing", "fb"), "fb");
  EXPECT_EQ(v->find("missing"), nullptr);

  // \uXXXX escapes decode to UTF-8 bytes; raw UTF-8 passes through.
  const auto unicode = parse_json(R"(["caf\u00e9", "café"])");
  ASSERT_TRUE(unicode.has_value());
  EXPECT_EQ(unicode->as_array()[0].as_string(), "caf\xc3\xa9");
  EXPECT_EQ(unicode->as_array()[1].as_string(), "caf\xc3\xa9");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(parse_json(""));
  EXPECT_FALSE(parse_json("{\"a\": }"));
  EXPECT_FALSE(parse_json("[1, 2] trailing"));
  EXPECT_FALSE(parse_json("\"unterminated"));
  EXPECT_FALSE(parse_json("{\"a\" 1}"));
  EXPECT_FALSE(parse_json("{\"a\": 1,}"));
  // The depth cap rejects pathological nesting instead of recursing off
  // the stack; sane nesting is fine.
  EXPECT_FALSE(parse_json(std::string(80, '[') + std::string(80, ']')));
  EXPECT_TRUE(parse_json(std::string(40, '[') + std::string(40, ']')));
}

// ---------------------------------------------------------------------------
// Manifest diffing and regression gating.

/// A minimal manifest document with the fields the differ gates on.
std::string manifest_fixture(double started_ms, double duration_ms,
                             double silhouette = 0.8,
                             double err_frac = 0.02, double phase_count = 4,
                             double cold_fallbacks = 0, double nonfinite = 0,
                             double p50 = 100.0, double p99 = 200.0,
                             double mystery = 1.0) {
  std::ostringstream os;
  os << R"({"schema": "simprof.manifest/1", "verb": "profile", )"
     << R"("started_unix_ms": )" << started_ms << R"(, "duration_ms": )"
     << duration_ms << R"(, "exit_code": 0, )"
     << R"("build": {"git_sha": "abc123def456"}, )"
     << R"("quality": {"silhouette": )" << silhouette
     << R"(, "sampling_error_frac": )" << err_frac << R"(, "phase_count": )"
     << phase_count << R"(, "mystery_metric": )" << mystery
     << R"(}, "checkpoint": {"cold_fallbacks": )" << cold_fallbacks
     << R"(}, "metrics": {"counters": {"obs.json_nonfinite": )" << nonfinite
     << R"(}, "quantile_histograms": {"lab.run_ms": {"p50": )" << p50
     << R"(, "p99": )" << p99 << "}}}}";
  return os.str();
}

JsonValue parsed_fixture(const std::string& text) {
  auto v = parse_json(text);
  EXPECT_TRUE(v.has_value()) << text;
  return v ? *v : JsonValue{};
}

bool has_regression(const RunReport& r, std::string_view metric) {
  for (const ReportFinding& f : r.findings) {
    if (f.kind == ReportFinding::Kind::kRegression && f.metric == metric) {
      return true;
    }
  }
  return false;
}

TEST(ReportDiffTest, IdenticalManifestsProduceNoFindings) {
  const JsonValue base = parsed_fixture(manifest_fixture(1000, 100));
  const JsonValue cur = parsed_fixture(manifest_fixture(2000, 100));
  const RunReport r = diff_manifests(base, cur, {}, "base", "cur");
  EXPECT_EQ(r.regressions(), 0u);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_FALSE(r.to_markdown().empty());
  EXPECT_TRUE(json_well_formed(r.to_json())) << r.to_json();
}

TEST(ReportDiffTest, LatencyGateRespectsRelativeAndAbsoluteFloors) {
  const JsonValue base = parsed_fixture(manifest_fixture(1000, 100));

  // +100% and +100 ms: regression.
  RunReport r = diff_manifests(
      base, parsed_fixture(manifest_fixture(2000, 200)), {}, "b", "c");
  EXPECT_EQ(r.regressions(), 1u);
  EXPECT_TRUE(has_regression(r, "duration_ms"));
  EXPECT_NE(r.to_markdown().find("duration_ms"), std::string::npos);

  // +4 ms is under the 5 ms absolute floor.
  r = diff_manifests(base, parsed_fixture(manifest_fixture(2000, 104)), {},
                     "b", "c");
  EXPECT_EQ(r.regressions(), 0u);

  // A micro-run doubling (2 → 4 ms) stays under the floor too.
  r = diff_manifests(parsed_fixture(manifest_fixture(1000, 2)),
                     parsed_fixture(manifest_fixture(2000, 4)), {}, "b", "c");
  EXPECT_EQ(r.regressions(), 0u);

  // A big drop is reported as an improvement, not a regression.
  r = diff_manifests(base, parsed_fixture(manifest_fixture(2000, 40)), {},
                     "b", "c");
  EXPECT_EQ(r.regressions(), 0u);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, ReportFinding::Kind::kImprovement);
}

TEST(ReportDiffTest, QualityGateIsDirectionAware) {
  const JsonValue base = parsed_fixture(manifest_fixture(1000, 100));

  // silhouette: higher is better, -25% is a regression.
  RunReport r = diff_manifests(
      base, parsed_fixture(manifest_fixture(2000, 100, 0.6)), {}, "b", "c");
  EXPECT_TRUE(has_regression(r, "quality.silhouette"));

  // sampling_error_frac: lower is better, growth is a regression.
  r = diff_manifests(base,
                     parsed_fixture(manifest_fixture(2000, 100, 0.8, 0.05)),
                     {}, "b", "c");
  EXPECT_TRUE(has_regression(r, "quality.sampling_error_frac"));

  // silhouette improving is an improvement finding, zero regressions.
  r = diff_manifests(base,
                     parsed_fixture(manifest_fixture(2000, 100, 0.95)), {},
                     "b", "c");
  EXPECT_EQ(r.regressions(), 0u);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings[0].kind, ReportFinding::Kind::kImprovement);

  // A metric with no known gating direction only informs.
  r = diff_manifests(
      base,
      parsed_fixture(manifest_fixture(2000, 100, 0.8, 0.02, 4, 0, 0, 100.0,
                                      200.0, 9.0)),
      {}, "b", "c");
  EXPECT_EQ(r.regressions(), 0u);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, ReportFinding::Kind::kInfo);
  EXPECT_EQ(r.findings[0].metric, "quality.mystery_metric");
}

TEST(ReportDiffTest, PhaseDriftAndHealthCountersRegress) {
  const JsonValue base = parsed_fixture(manifest_fixture(1000, 100));
  const JsonValue cur = parsed_fixture(
      manifest_fixture(2000, 100, 0.8, 0.02, /*phase_count=*/5,
                       /*cold_fallbacks=*/2, /*nonfinite=*/1));
  const RunReport r = diff_manifests(base, cur, {}, "b", "c");
  EXPECT_EQ(r.regressions(), 3u);
  EXPECT_TRUE(has_regression(r, "quality.phase_count"));
  EXPECT_TRUE(has_regression(r, "checkpoint.cold_fallbacks"));
  EXPECT_TRUE(has_regression(r, "obs.json_nonfinite"));
  // Regressions sort ahead of everything else in the findings list.
  EXPECT_EQ(r.findings[0].kind, ReportFinding::Kind::kRegression);
}

TEST(ReportDiffTest, QuantileHistogramPercentilesAreGated) {
  const JsonValue base = parsed_fixture(manifest_fixture(1000, 100));
  // p50 doubles (regression); p99 +5% sits inside the noise floor.
  const JsonValue cur = parsed_fixture(manifest_fixture(
      2000, 100, 0.8, 0.02, 4, 0, 0, /*p50=*/200.0, /*p99=*/210.0));
  const RunReport r = diff_manifests(base, cur, {}, "b", "c");
  EXPECT_EQ(r.regressions(), 1u);
  EXPECT_TRUE(has_regression(r, "lab.run_ms.p50"));
}

/// Manifest fixture for the service-side quality figures, with the
/// work-count denominator optionally omitted.
std::string service_manifest_fixture(double started_ms, double requests,
                                     double qps, double p99,
                                     bool include_requests = true) {
  std::ostringstream os;
  os << R"({"schema": "simprof.manifest/1", "verb": "serve", )"
     << R"("started_unix_ms": )" << started_ms
     << R"(, "duration_ms": 50, "exit_code": 0, "quality": {)";
  if (include_requests) os << R"("service_requests": )" << requests << ", ";
  os << R"("service_qps": )" << qps << R"(, "service_p99_ms": )" << p99
     << "}}";
  return os.str();
}

TEST(ReportDiffTest, EmptyDenominatorIsExplicitRegression) {
  const JsonValue base =
      parsed_fixture(service_manifest_fixture(1000, 12, 50.0, 240.0));

  // Zero requests served: the quality figures were computed over nothing.
  RunReport r = diff_manifests(
      base, parsed_fixture(service_manifest_fixture(2000, 0, 0.0, 0.0)), {},
      "b", "c");
  EXPECT_TRUE(has_regression(r, "quality.service_requests"));

  // Even zero-vs-zero regresses — two do-nothing runs must not gate green.
  r = diff_manifests(
      parsed_fixture(service_manifest_fixture(1000, 0, 0.0, 0.0)),
      parsed_fixture(service_manifest_fixture(2000, 0, 0.0, 0.0)), {}, "b",
      "c");
  EXPECT_TRUE(has_regression(r, "quality.service_requests"));

  // The denominator vanishing from the current manifest is equally blind.
  r = diff_manifests(base,
                     parsed_fixture(service_manifest_fixture(
                         2000, 0, 50.0, 240.0, /*include_requests=*/false)),
                     {}, "b", "c");
  EXPECT_TRUE(has_regression(r, "quality.service_requests"));

  // A healthy pair with the same counts gates clean.
  r = diff_manifests(
      base, parsed_fixture(service_manifest_fixture(2000, 12, 50.0, 240.0)),
      {}, "b", "c");
  EXPECT_EQ(r.regressions(), 0u);
}

TEST(ReportDiffTest, ServiceQualityFiguresAreDirectionAware) {
  const JsonValue base =
      parsed_fixture(service_manifest_fixture(1000, 12, 50.0, 240.0));

  // Throughput collapse: higher is better, so the drop regresses.
  RunReport r = diff_manifests(
      base, parsed_fixture(service_manifest_fixture(2000, 12, 30.0, 240.0)),
      {}, "b", "c");
  EXPECT_TRUE(has_regression(r, "quality.service_qps"));

  // Tail latency growth: lower is better.
  r = diff_manifests(
      base, parsed_fixture(service_manifest_fixture(2000, 12, 50.0, 400.0)),
      {}, "b", "c");
  EXPECT_TRUE(has_regression(r, "quality.service_p99_ms"));
}

TEST(ReportDirectoryTest, GatesNewestAgainstPrevious) {
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  ScratchDir dir;
  std::filesystem::create_directories(dir.c_str());
  const auto put = [&dir](const char* name, const std::string& body) {
    std::ofstream(std::string(dir.c_str()) + "/" + name) << body;
  };
  put("a.json", manifest_fixture(1000, 100));
  put("b.json", manifest_fixture(2000, 100));
  put("c.json", manifest_fixture(3000, 400));  // regresses vs b.json
  put("junk.json", "{not json");               // ignored: unparseable
  put("other.json", R"({"schema": "other/1"})");  // ignored: wrong schema

  const auto report = report_directory(dir.c_str(), {});
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->manifest_count, 3u);
  EXPECT_GE(report->gate.regressions(), 1u);
  EXPECT_EQ(report->gate.base_label, "b.json");
  EXPECT_EQ(report->gate.current_label, "c.json");
  EXPECT_NE(report->series_md.find("3 manifests"), std::string::npos);
  EXPECT_NE(report->series_md.find("a.json"), std::string::npos);

  // Fewer than two manifests: no report.
  const std::string lonely = std::string(dir.c_str()) + "/lonely";
  std::filesystem::create_directories(lonely);
  std::ofstream(lonely + "/only.json") << manifest_fixture(1000, 100);
  EXPECT_FALSE(report_directory(lonely, {}).has_value());
}

// ---------------------------------------------------------------------------
// Heartbeat / flight recorder.

TEST(HeartbeatTest, FlightRecordJsonContainsOpenSpans) {
  TraceGuard guard;
  start_tracing();
  ObsSpan span("live_span");
  const std::string doc = flight_record_json();
  EXPECT_TRUE(json_well_formed(doc)) << doc;
  EXPECT_NE(doc.find("simprof.flightrec/1"), std::string::npos);
  EXPECT_NE(doc.find("live_span"), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
}

TEST(HeartbeatTest, ThreadServesFlightRecordsAndBeats) {
  LogGuard log_guard;
  std::ostringstream sink;
  set_log_sink(&sink);
  set_log_level(LogLevel::kInfo);

  ScratchDir dir;
  std::filesystem::create_directories(dir.c_str());
  const std::string path = std::string(dir.c_str()) + "/flightrec.json";

  ASSERT_FALSE(heartbeat_running());
  HeartbeatConfig cfg;
  cfg.period_s = 0.01;  // clamped to the 0.1 s internal minimum
  cfg.flightrec_path = path;
  cfg.install_sigusr1 = false;  // keep signals out of the test binary
  start_heartbeat(cfg);
  EXPECT_TRUE(heartbeat_running());
  start_heartbeat(cfg);  // no-op when already running

  metrics().counter("progress.units").add(5);
  request_flight_record();
  bool written = false;
  for (int i = 0; i < 100 && !written; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    written = std::filesystem::exists(path);
  }
  stop_heartbeat();  // joins, so reading the sink below is race-free
  EXPECT_FALSE(heartbeat_running());
  stop_heartbeat();  // safe when stopped

  ASSERT_TRUE(written);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(json_well_formed(buf.str())) << buf.str();
  EXPECT_NE(buf.str().find("simprof.flightrec/1"), std::string::npos);
  // At least one progress beat was logged alongside the flight record.
  EXPECT_NE(sink.str().find("heartbeat:"), std::string::npos);
  EXPECT_NE(sink.str().find("units/s"), std::string::npos);
}

}  // namespace
}  // namespace simprof::obs
