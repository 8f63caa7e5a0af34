// Properties of a stream of units that phase formation must hold now that
// batch form_phases is the only formation path. The StreamingPhaseFormer
// suite keeps the name of the online former these cases first drove; each
// case now runs the same inputs through form_phases: shuffled arrival forms
// the same structure, the prefixes a unit-by-unit consumer would form are
// bit-identical across thread counts, concurrent callers over distinct
// windows do not perturb one another, short streams form, and a unit outside
// its method table or an empty stream is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/phase.h"
#include "core/sampling.h"
#include "support/assert.h"
#include "support/rng.h"
#include "test_util.h"

namespace simprof::core {
namespace {

void expect_models_bit_identical(const PhaseModel& a, const PhaseModel& b) {
  ASSERT_EQ(a.k, b.k);
  EXPECT_EQ(a.feature_names, b.feature_names);
  EXPECT_EQ(a.feature_kinds, b.feature_kinds);
  ASSERT_EQ(a.centers.rows(), b.centers.rows());
  ASSERT_EQ(a.centers.cols(), b.centers.cols());
  for (std::size_t r = 0; r < a.centers.rows(); ++r) {
    for (std::size_t c = 0; c < a.centers.cols(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.centers.at(r, c)),
                std::bit_cast<std::uint64_t>(b.centers.at(r, c)))
          << "center (" << r << "," << c << ") differs";
    }
  }
  EXPECT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.silhouette_scores.size(), b.silhouette_scores.size());
  for (std::size_t i = 0; i < a.silhouette_scores.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.silhouette_scores[i]),
              std::bit_cast<std::uint64_t>(b.silhouette_scores[i]));
  }
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t h = 0; h < a.phases.size(); ++h) {
    EXPECT_EQ(a.phases[h].count, b.phases[h].count);
    EXPECT_EQ(a.phases[h].mean_cpi, b.phases[h].mean_cpi);
    EXPECT_EQ(a.phases[h].stddev_cpi, b.phases[h].stddev_cpi);
    EXPECT_EQ(a.phases[h].trimmed_stddev_cpi, b.phases[h].trimmed_stddev_cpi);
    EXPECT_EQ(a.phases[h].weight, b.phases[h].weight);
  }
  EXPECT_EQ(a.phase_types, b.phase_types);
  EXPECT_EQ(a.representative_units, b.representative_units);
}

// Units [begin, end) of `p`, under its method table.
ThreadProfile window(const ThreadProfile& p, std::size_t begin,
                     std::size_t end) {
  ThreadProfile w;
  w.method_names = p.method_names;
  w.method_kinds = p.method_kinds;
  w.units.assign(p.units.begin() + static_cast<std::ptrdiff_t>(begin),
                 p.units.begin() + static_cast<std::ptrdiff_t>(end));
  return w;
}

ThreadProfile shuffled_copy(const ThreadProfile& p, std::uint64_t seed) {
  ThreadProfile s = window(p, 0, p.num_units());
  Rng rng(seed);
  for (std::size_t i = s.units.size(); i > 1; --i) {
    std::swap(s.units[i - 1],
              s.units[static_cast<std::size_t>(rng.next_below(i))]);
  }
  return s;
}

TEST(StreamingPhaseFormer, ShuffledArrivalConvergesWithinTolerance) {
  const auto p = testing::synthetic_profile(
      {{80, 0.5, 0.02, 1}, {80, 2.0, 0.05, 2}});
  const PhaseModel batch = form_phases(p);

  const ThreadProfile shuffled = shuffled_copy(p, 0xABCDEF);
  const PhaseModel streamed = form_phases(shuffled);

  // Same structure within tolerance: phase count within one, best
  // silhouette close, and the shuffled model samples its profile about as
  // accurately as the in-order model samples its own.
  EXPECT_LE(streamed.k > batch.k ? streamed.k - batch.k : batch.k - streamed.k,
            1u);
  const double best_b = *std::max_element(batch.silhouette_scores.begin(),
                                          batch.silhouette_scores.end());
  const double best_s = *std::max_element(streamed.silhouette_scores.begin(),
                                          streamed.silhouette_scores.end());
  EXPECT_NEAR(best_s, best_b, 0.15);

  const SamplePlan plan_b = simprof_sample(p, batch, 24, 99);
  const SamplePlan plan_s = simprof_sample(shuffled, streamed, 24, 99);
  EXPECT_LT(relative_error(plan_b, p), 0.05);
  EXPECT_LT(relative_error(plan_s, shuffled), 0.05);
}

TEST(StreamingPhaseFormer, SameArrivalOrderBitIdenticalAcrossThreadCounts) {
  const auto p = testing::synthetic_profile(
      {{60, 0.5, 0.02, 1}, {60, 2.0, 0.05, 2}, {60, 1.2, 0.03, 3}});
  // Every prefix a unit-by-unit consumer would form along the way must
  // agree, not just the whole profile: 16 units, then each time the
  // population has grown by half, then all 180.
  const std::size_t prefixes[] = {16, 24, 36, 54, 81, 122, 180};
  for (const std::size_t n : prefixes) {
    SCOPED_TRACE("prefix " + std::to_string(n));
    const ThreadProfile prefix = window(p, 0, n);
    PhaseFormationConfig one;
    one.threads = 1;
    PhaseFormationConfig eight;
    eight.threads = 8;
    const PhaseModel m1 = form_phases(prefix, one);
    EXPECT_EQ(m1.labels.size(), n);
    expect_models_bit_identical(m1, form_phases(prefix, eight));
  }
}

TEST(StreamingPhaseFormer, ManyConcurrentFormersEvictUnderQuotaIndependently) {
  // The daemon model: every in-flight request forms phases on its own
  // ticket thread. Run many callers concurrently (TSan coverage for
  // shared-nothing formation), each over its own window of the newest
  // 40 + 4i units, and check each model covers exactly its own window — no
  // cross-talk between callers.
  const auto p = testing::synthetic_profile(
      {{120, 0.5, 0.02, 1}, {120, 2.0, 0.05, 2}});
  constexpr std::size_t kFormers = 8;
  const auto config = [](std::size_t i) {
    PhaseFormationConfig cfg;
    // Half the callers use the shared pool (exercises its job queueing
    // under concurrency), half run inline.
    cfg.threads = (i % 2 == 0) ? 1 : 2;
    return cfg;
  };
  const auto quota = [](std::size_t i) { return 40 + 4 * i; };
  std::vector<ThreadProfile> windows;
  for (std::size_t i = 0; i < kFormers; ++i) {
    windows.push_back(window(p, p.num_units() - quota(i), p.num_units()));
  }
  std::vector<PhaseModel> models(kFormers);
  std::vector<std::thread> threads;
  threads.reserve(kFormers);
  for (std::size_t i = 0; i < kFormers; ++i) {
    threads.emplace_back(
        [&, i] { models[i] = form_phases(windows[i], config(i)); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kFormers; ++i) {
    EXPECT_GE(models[i].k, 1u) << "former " << i;
    EXPECT_EQ(models[i].labels.size(), quota(i)) << "former " << i;
  }
  // Concurrency must not perturb results: a serial run over the same window
  // is bit-identical to the concurrent one.
  for (const std::size_t i : {std::size_t{0}, kFormers - 1}) {
    expect_models_bit_identical(form_phases(windows[i], config(i)), models[i]);
  }
}

TEST(StreamingPhaseFormer, SmallStreamsFormWithoutAborting) {
  // A stream can end with fewer units than the k-sweep's max_k; formation
  // clamps the sweep instead of contract-aborting, for n = 1, 2 and
  // k_max − 1.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{19}}) {
    const auto p = testing::synthetic_profile({{n, 1.0, 0.05, 1}});
    const PhaseModel model = form_phases(p);
    EXPECT_GE(model.k, 1u);
    EXPECT_LE(model.k, n);
    EXPECT_EQ(model.labels.size(), n);
  }
}

TEST(StreamingPhaseFormer, UnitOutsideItsMethodTableIsRejectedAtIngest) {
  // A unit naming a method its table lacks is refused; the same stream
  // without it still forms.
  const auto p = testing::synthetic_profile({{20, 1.0, 0.05, 1}});
  auto bad = p;
  bad.units[1].methods[1] = static_cast<jvm::MethodId>(bad.num_methods());
  EXPECT_THROW(form_phases(bad), ContractViolation);
  EXPECT_EQ(form_phases(p).labels.size(), p.num_units());
}

TEST(StreamingPhaseFormer, FinalizeWithoutIngestIsRejected) {
  // A stream that delivered no units, method table and all, has no phases.
  const auto p = testing::synthetic_profile({{20, 1.0, 0.05, 1}});
  EXPECT_THROW(form_phases(window(p, 0, 0)), ContractViolation);
}

}  // namespace
}  // namespace simprof::core
