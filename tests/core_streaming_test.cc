// Streaming-vs-batch equivalence suite for the online phase former: in-order
// full ingestion is bit-identical to batch form_phases, shuffled arrival
// converges within tolerance, results are bit-identical across thread
// counts, and the retention cap bounds memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/phase.h"
#include "core/sampling.h"
#include "core/streaming.h"
#include "features/feature_mode.h"
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
      EXPECT_EQ(a.centers.at(r, c), b.centers.at(r, c))
          << "center (" << r << "," << c << ") differs";
    }
  }
  EXPECT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.silhouette_scores.size(), b.silhouette_scores.size());
  for (std::size_t i = 0; i < a.silhouette_scores.size(); ++i) {
    EXPECT_EQ(a.silhouette_scores[i], b.silhouette_scores[i]);
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

ThreadProfile shuffled_copy(const ThreadProfile& p, std::uint64_t seed) {
  ThreadProfile s;
  s.method_names = p.method_names;
  s.method_kinds = p.method_kinds;
  s.units = p.units;
  Rng rng(seed);
  for (std::size_t i = s.units.size(); i > 1; --i) {
    std::swap(s.units[i - 1],
              s.units[static_cast<std::size_t>(rng.next_below(i))]);
  }
  return s;
}

TEST(StreamingPhaseFormer, InOrderFinalizeIsBitIdenticalToBatch) {
  const auto p = testing::synthetic_profile(
      {{70, 0.5, 0.02, 1}, {70, 2.0, 0.05, 2}, {70, 1.2, 0.03, 3}});
  StreamingPhaseFormer former{{}};
  former.ingest_range(p, 0, p.num_units());
  const PhaseModel streamed = former.finalize();
  const PhaseModel batch = form_phases(p);
  expect_models_bit_identical(streamed, batch);
  EXPECT_EQ(former.units_ingested(), p.num_units());
  EXPECT_EQ(former.units_retained(), p.num_units());
}

TEST(StreamingPhaseFormer, InOrderFinalizeMatchesBatchInEveryFeatureMode) {
  const auto p = testing::synthetic_profile(
      {{70, 0.5, 0.02, 1}, {70, 2.0, 0.05, 2}, {70, 1.2, 0.03, 3}});
  for (const auto mode :
       {features::FeatureMode::kFreq, features::FeatureMode::kMav,
        features::FeatureMode::kCombined}) {
    SCOPED_TRACE(features::to_string(mode));
    StreamingConfig scfg;
    scfg.formation.features = mode;
    StreamingPhaseFormer former{scfg};
    former.ingest_range(p, 0, p.num_units());
    const PhaseModel streamed = former.finalize();
    PhaseFormationConfig pcfg;
    pcfg.features = mode;
    expect_models_bit_identical(streamed, form_phases(p, pcfg));
    EXPECT_EQ(streamed.feature_mode, mode);
  }
}

TEST(StreamingPhaseFormer, ShuffledArrivalConvergesWithinTolerance) {
  const auto p = testing::synthetic_profile(
      {{80, 0.5, 0.02, 1}, {80, 2.0, 0.05, 2}});
  const PhaseModel batch = form_phases(p);

  const ThreadProfile shuffled = shuffled_copy(p, 0xABCDEF);
  StreamingPhaseFormer former{{}};
  former.ingest_range(shuffled, 0, shuffled.num_units());
  const PhaseModel streamed = former.finalize();

  // Same structure within tolerance: phase count within one, best
  // silhouette close, and the streamed model samples its profile about as
  // accurately as the batch model samples its own.
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
  // Every recluster along the way must agree, not just the end state: the
  // hook records each interim model's k, labels and center bits.
  const auto run = [&](std::size_t threads) {
    StreamingConfig cfg;
    cfg.formation.threads = threads;
    StreamingPhaseFormer former{cfg};
    std::vector<PhaseModel> models;
    former.set_update_hook(
        [&](const StreamingPhaseFormer& f) { models.push_back(f.model()); });
    former.ingest_range(p, 0, p.num_units());
    former.finalize();
    return models;
  };
  const std::vector<PhaseModel> one = run(1);
  const std::vector<PhaseModel> eight = run(8);
  ASSERT_GT(one.size(), 1u);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t r = 0; r < one.size(); ++r) {
    SCOPED_TRACE("recluster " + std::to_string(r + 1));
    EXPECT_EQ(one[r].k, eight[r].k);
    EXPECT_EQ(one[r].labels, eight[r].labels);
    const auto c1 = one[r].centers.flat();
    const auto c8 = eight[r].centers.flat();
    ASSERT_EQ(c1.size(), c8.size());
    for (std::size_t i = 0; i < c1.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c1[i]),
                std::bit_cast<std::uint64_t>(c8[i]))
          << "center flat index " << i;
    }
  }
  expect_models_bit_identical(one.back(), eight.back());
}

TEST(StreamingPhaseFormer, EveryReclusterIsBatchFormationOfItsRetainedUnits) {
  // Each recluster's model is exactly what batch form_phases makes of the
  // units the former retains at that moment: k, labels, silhouette scores
  // and center bits, in every feature mode, with and without eviction.
  const auto p = testing::synthetic_profile(
      {{50, 0.5, 0.02, 1}, {50, 2.0, 0.05, 2}, {50, 1.2, 0.03, 3}});
  for (const auto mode :
       {features::FeatureMode::kFreq, features::FeatureMode::kMav,
        features::FeatureMode::kCombined}) {
    for (const std::size_t retain : {std::size_t{0}, std::size_t{40}}) {
      SCOPED_TRACE(std::string(features::to_string(mode)) + " retain " +
                   std::to_string(retain));
      StreamingConfig cfg;
      cfg.formation.features = mode;
      cfg.max_retained_units = retain;
      StreamingPhaseFormer former{cfg};
      std::size_t checked = 0;
      former.set_update_hook([&](const StreamingPhaseFormer& f) {
        ++checked;
        const PhaseModel batch = form_phases(f.profile(), cfg.formation);
        const PhaseModel& got = f.model();
        ASSERT_EQ(got.k, batch.k) << "recluster " << f.reclusters();
        EXPECT_EQ(got.labels, batch.labels) << "recluster " << f.reclusters();
        ASSERT_EQ(got.silhouette_scores.size(),
                  batch.silhouette_scores.size());
        for (std::size_t i = 0; i < got.silhouette_scores.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.silhouette_scores[i]),
                    std::bit_cast<std::uint64_t>(batch.silhouette_scores[i]));
        }
        const auto cg = got.centers.flat();
        const auto cb = batch.centers.flat();
        ASSERT_EQ(cg.size(), cb.size());
        for (std::size_t i = 0; i < cg.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(cg[i]),
                    std::bit_cast<std::uint64_t>(cb[i]))
              << "recluster " << f.reclusters() << " center flat index " << i;
        }
      });
      former.ingest_range(p, 0, p.num_units());
      former.finalize();
      EXPECT_EQ(checked, former.reclusters());
      EXPECT_GT(checked, 2u);
      if (retain > 0) {
        EXPECT_EQ(former.units_retained(), retain);
      }
    }
  }
}

TEST(StreamingPhaseFormer, WarmupReturnsNoPhaseThenLabels) {
  const auto p = testing::synthetic_profile(
      {{30, 0.5, 0.02, 1}, {30, 2.0, 0.05, 2}});
  StreamingPhaseFormer former{{}};
  for (std::size_t u = 0; u + 1 < kStreamWarmupUnits; ++u) {
    former.ingest(p, u);
    EXPECT_FALSE(former.has_model());
    EXPECT_EQ(former.reclusters(), 0u);
  }
  former.ingest(p, kStreamWarmupUnits - 1);
  EXPECT_TRUE(former.has_model());
  EXPECT_EQ(former.reclusters(), 1u);
  EXPECT_EQ(former.model().labels.size(), kStreamWarmupUnits);
}

TEST(StreamingPhaseFormer, UpdateHookFiresPerReclusterAndCanSampleLive) {
  const auto p = testing::synthetic_profile(
      {{90, 0.5, 0.02, 1}, {90, 2.0, 0.05, 2}});
  StreamingPhaseFormer former{{}};
  std::size_t fired = 0;
  former.set_update_hook([&](const StreamingPhaseFormer& f) {
    ++fired;
    EXPECT_GE(f.model().k, 1u);
    // The live-selection path the CLI uses: an interim stratified plan from
    // the partial profile, available before the run finishes.
    const std::size_t n = std::min<std::size_t>(8, f.units_retained());
    const SamplePlan plan = simprof_sample(f.profile(), f.model(), n, 7);
    EXPECT_GT(plan.sample_size(), 0u);
  });
  former.ingest_range(p, 0, p.num_units());
  EXPECT_GT(fired, 1u);  // warmup recluster plus geometric growth passes
  EXPECT_EQ(fired, former.reclusters());
  former.finalize();
  EXPECT_EQ(fired, former.reclusters());
}

TEST(StreamingPhaseFormer, RetentionCapBoundsMemoryAndStillForms) {
  const auto p = testing::synthetic_profile(
      {{150, 0.5, 0.02, 1}, {150, 2.0, 0.05, 2}});
  StreamingConfig cfg;
  cfg.max_retained_units = 50;
  StreamingPhaseFormer former{cfg};
  former.ingest_range(p, 0, p.num_units());
  const PhaseModel model = former.finalize();
  EXPECT_EQ(former.units_ingested(), p.num_units());
  EXPECT_EQ(former.units_retained(), cfg.max_retained_units);
  EXPECT_GE(model.k, 1u);
  EXPECT_EQ(model.labels.size(), cfg.max_retained_units);
}

TEST(StreamingPhaseFormer, ManyConcurrentFormersEvictUnderQuotaIndependently) {
  // The daemon model: every in-flight streaming request owns its own former
  // and runs on its own thread, with max_retained_units as the per-client
  // memory quota. Run many concurrently (TSan coverage for shared-nothing
  // isolation) with distinct quotas, and check each evicted down to exactly
  // its own cap — no cross-talk between instances.
  const auto p = testing::synthetic_profile(
      {{120, 0.5, 0.02, 1}, {120, 2.0, 0.05, 2}});
  constexpr std::size_t kFormers = 8;
  std::vector<PhaseModel> models(kFormers);
  std::vector<std::size_t> retained(kFormers);
  std::vector<std::thread> threads;
  threads.reserve(kFormers);
  for (std::size_t i = 0; i < kFormers; ++i) {
    threads.emplace_back([&, i] {
      StreamingConfig cfg;
      // Half the formers use the shared pool (exercises its job queueing
      // under concurrency), half run inline.
      cfg.formation.threads = (i % 2 == 0) ? 1 : 2;
      cfg.max_retained_units = 40 + 4 * i;
      StreamingPhaseFormer former{cfg};
      former.ingest_range(p, 0, p.num_units());
      models[i] = former.finalize();
      retained[i] = former.units_retained();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kFormers; ++i) {
    EXPECT_EQ(retained[i], 40 + 4 * i) << "former " << i;
    EXPECT_GE(models[i].k, 1u) << "former " << i;
    EXPECT_EQ(models[i].labels.size(), 40 + 4 * i) << "former " << i;
  }
  // Concurrency must not perturb results: a serial run with the same quota
  // is bit-identical to the concurrent one.
  for (const std::size_t i : {std::size_t{0}, kFormers - 1}) {
    StreamingConfig cfg;
    cfg.formation.threads = (i % 2 == 0) ? 1 : 2;
    cfg.max_retained_units = 40 + 4 * i;
    StreamingPhaseFormer serial{cfg};
    serial.ingest_range(p, 0, p.num_units());
    expect_models_bit_identical(serial.finalize(), models[i]);
  }
}

TEST(StreamingPhaseFormer, SmallStreamsFormWithoutAborting) {
  // A stream can end with fewer units than the k-sweep's max_k; finalize()
  // clamps the sweep instead of contract-aborting, for n = 1, 2 (before the
  // warmup recluster) and k_max − 1.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{19}}) {
    const auto p = testing::synthetic_profile({{n, 1.0, 0.05, 1}});
    StreamingPhaseFormer former{{}};
    former.ingest_range(p, 0, p.num_units());
    const PhaseModel model = former.finalize();
    EXPECT_GE(model.k, 1u);
    EXPECT_LE(model.k, n);
    EXPECT_EQ(model.labels.size(), n);
  }
}

TEST(StreamingPhaseFormer, ConflictingMethodTableIsRejected) {
  const auto p = testing::synthetic_profile({{20, 1.0, 0.05, 1}});
  auto q = p;
  q.method_names[1] = "something-else";
  StreamingPhaseFormer former{{}};
  former.ingest(p, 0);
  EXPECT_THROW(former.ingest(q, 0), ContractViolation);
}

TEST(StreamingPhaseFormer, UnitOutsideItsMethodTableIsRejectedAtIngest) {
  // The bad unit never reaches the retained profile, so later reclusters
  // still form.
  const auto p = testing::synthetic_profile({{20, 1.0, 0.05, 1}});
  auto bad = p;
  bad.units[1].methods[1] = static_cast<jvm::MethodId>(bad.num_methods());
  StreamingPhaseFormer former{{}};
  former.ingest(p, 0);
  EXPECT_THROW(former.ingest(bad, 1), ContractViolation);
  EXPECT_EQ(former.units_retained(), 1u);
  former.ingest_range(p, 1, p.num_units());
  EXPECT_EQ(former.finalize().labels.size(), p.num_units());
}

TEST(StreamingPhaseFormer, FinalizeWithoutIngestIsRejected) {
  StreamingPhaseFormer former{{}};
  EXPECT_THROW(former.finalize(), ContractViolation);
}

}  // namespace
}  // namespace simprof::core
