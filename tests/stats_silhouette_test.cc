// Regression tests for silhouette scoring of degenerate clusterings,
// chiefly the singleton-cluster convention (see DESIGN.md §6d): a point
// alone in its cluster has a(i) undefined, so s(i) = 0 (sklearn convention).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "stats/matrix.h"
#include "stats/silhouette.h"

namespace simprof::stats {
namespace {

// Two points in cluster 0, one singleton cluster 1: A=0, B=1, C=10.
struct SingletonFixture {
  Matrix points{3, 1};
  std::vector<std::size_t> labels{0, 0, 1};
  SingletonFixture() {
    points.at(0, 0) = 0.0;
    points.at(1, 0) = 1.0;
    points.at(2, 0) = 10.0;
  }
};

TEST(ExactSilhouette, SingletonClusterScoresZero) {
  SingletonFixture f;
  // s(A) = (10-1)/10, s(B) = (9-1)/9, s(C) = 0 (singleton).
  const double expected = (9.0 / 10.0 + 8.0 / 9.0 + 0.0) / 3.0;
  const double s = exact_silhouette(f.points, f.labels, 2);
  EXPECT_NEAR(s, expected, 1e-12);
}

}  // namespace
}  // namespace simprof::stats
