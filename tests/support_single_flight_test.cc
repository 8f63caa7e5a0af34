// support::SingleFlight: one build per key however many callers race on it,
// distinct keys build concurrently, a failed build reaches every waiter and
// is retried by the next call, and slots vanish with their last holder —
// except the most recently built value, which stays resident.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <latch>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "support/single_flight.h"

namespace simprof::support {
namespace {

using Cache = SingleFlight<int, const int>;

/// Slots of the cache built with metric prefix `p`.
double resident(const std::string& p) {
  return obs::metrics().gauge(p + "_resident").value();
}

TEST(SingleFlight, ConcurrentCallersOfOneKeyBuildOnce) {
  Cache cache("sf_test.once");
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::barrier start(kThreads);
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      got[i] = cache.get(7, [&] {
        ++builds;
        return 49;
      });
    });
  }
  for (auto& t : threads) t.join();
  // Callers that arrive after the build still find the held value.
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(obs::metrics().counter("sf_test.once_synth").value(), 1u);
  EXPECT_EQ(obs::metrics().counter("sf_test.once_shared").value(),
            kThreads - 1u);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p.get(), got[0].get());
    EXPECT_EQ(*p, 49);
  }
}

TEST(SingleFlight, DistinctKeysBuildConcurrently) {
  Cache cache;
  // Each build counts down the latch and then waits for the other build's
  // count: both succeed only if the two keys are inside their builds at
  // once. A cache that serialized the keys fails at the deadline instead
  // of hanging.
  std::latch both_building(2);
  std::atomic<int> overlapped{0};
  auto build_for = [&](int key) {
    return [&, key] {
      both_building.count_down();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!both_building.try_wait() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (both_building.try_wait()) ++overlapped;
      return key * 10;
    };
  };
  std::shared_ptr<const int> a, b;
  std::thread ta([&] { a = cache.get(1, build_for(1)); });
  std::thread tb([&] { b = cache.get(2, build_for(2)); });
  ta.join();
  tb.join();
  EXPECT_EQ(overlapped.load(), 2);
  EXPECT_EQ(*a, 10);
  EXPECT_EQ(*b, 20);
}

TEST(SingleFlight, FailureReachesEveryWaiterAndTheNextCallRetries) {
  constexpr int kWaiters = 3;
  Cache cache("sf_test.failure");
  // Every caller passes the same failing build, held until the test
  // releases it. Callers that joined the first flight get its failure
  // without building; one that arrived after the failure would build (and
  // fail) itself. Whether the waiters are blocked yet is only observable
  // by time, so a round in which one arrived late is repeated.
  bool all_joined = false;
  for (int round = 1; round <= 10 && !all_joined; ++round) {
    std::atomic<int> builds{0};
    std::atomic<int> failures{0};
    std::latch builder_inside(1);
    std::latch release(1);
    auto failing = [&]() -> int {
      if (builds.fetch_add(1) == 0) builder_inside.count_down();
      release.wait();
      throw std::runtime_error("build failed");
    };
    auto call = [&] {
      try {
        cache.get(5, failing);
      } catch (const std::runtime_error&) {
        ++failures;
      }
    };
    std::vector<std::thread> callers;
    callers.emplace_back(call);
    builder_inside.wait();
    for (int i = 0; i < kWaiters; ++i) callers.emplace_back(call);
    std::this_thread::sleep_for(std::chrono::milliseconds(20 * round));
    release.count_down();
    for (auto& t : callers) t.join();
    EXPECT_EQ(failures.load(), 1 + kWaiters);
    all_joined = builds.load() == 1;
  }
  EXPECT_TRUE(all_joined) << "the waiters never joined the failing flight";

  // The failed key is not retained: the next call builds afresh.
  EXPECT_EQ(resident("sf_test.failure"), 0.0);
  int builds = 0;
  const auto v = cache.get(5, [&] {
    ++builds;
    return 2;
  });
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(*v, 2);
}

TEST(SingleFlight, SlotsVanishWithTheirLastHolder) {
  const std::string p = "sf_test.vanish";
  Cache cache(p);
  auto a = cache.get(1, [] { return 1; });
  auto a2 = cache.get(1, [] { return -1; });  // held: shared, not rebuilt
  EXPECT_EQ(a.get(), a2.get());
  auto b = cache.get(2, [] { return 2; });
  EXPECT_EQ(resident(p), 2.0);
  a.reset();
  EXPECT_EQ(resident(p), 2.0) << "one holder of key 1 remains";
  a2.reset();
  // Key 1 had no holder left and is not the latest build: its slot is gone.
  EXPECT_EQ(resident(p), 1.0);
  b.reset();
  // Key 2 is the latest build and stays resident without a holder.
  EXPECT_EQ(resident(p), 1.0);
  int builds = 0;
  const auto b2 = cache.get(2, [&] {
    ++builds;
    return 0;
  });
  EXPECT_EQ(builds, 0);
  EXPECT_EQ(*b2, 2);
}

TEST(SingleFlight, LatestValueStaysResidentOlderUnheldValuesAreFreed) {
  const std::string p = "sf_test.latest";
  Cache cache(p);
  std::weak_ptr<const int> first = cache.get(1, [] { return 1; });
  EXPECT_FALSE(first.expired()) << "the latest build stays resident";
  std::weak_ptr<const int> second = cache.get(2, [] { return 2; });
  EXPECT_TRUE(first.expired()) << "an older unheld value is freed";
  EXPECT_FALSE(second.expired());
  EXPECT_EQ(resident(p), 1.0);

  // A value someone still holds survives a newer build.
  const auto held = cache.get(3, [] { return 3; });
  EXPECT_TRUE(second.expired());
  const auto fourth = cache.get(4, [] { return 4; });
  EXPECT_EQ(*held, 3);
  EXPECT_EQ(resident(p), 2.0);
}

TEST(SingleFlight, ValuesMayOutliveTheCache) {
  std::shared_ptr<const int> kept;
  {
    Cache cache;
    kept = cache.get(1, [] { return 11; });
  }
  EXPECT_EQ(*kept, 11);
  kept.reset();  // the deleter still finds the cache's shared state
}

TEST(SingleFlight, NonMovableValuesAreBuiltInPlace) {
  SingleFlight<int, std::mutex> locks;
  const auto a = locks.get(1, [] { return std::mutex(); });
  const auto b = locks.get(1, [] { return std::mutex(); });
  EXPECT_EQ(a.get(), b.get());
  std::lock_guard<std::mutex> lock(*a);
}

}  // namespace
}  // namespace simprof::support
