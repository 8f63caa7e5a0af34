// CSR SparseMatrix: structural contract (append_row / RowView) and the
// bit-compatibility contract with the dense feature path — to_dense,
// normalize_rows_l1, select_columns_dense and sparse f_regression must be
// bitwise equal to their dense equivalents, for any thread count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/phase.h"
#include "core/profile.h"
#include "stats/feature_select.h"
#include "stats/matrix.h"
#include "stats/sparse.h"
#include "support/assert.h"
#include "support/rng.h"

namespace simprof {
namespace {

void expect_same_matrix(const stats::Matrix& a, const stats::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i], fb[i]) << "flat index " << i;  // bitwise, not NEAR
  }
}

/// Same shape as the determinism suite's profile: few methods per unit,
/// unsorted ids with duplicates — the worst case for the CSR builder. The
/// method table is `spare` entries wider than the ids units ever touch, so
/// those columns stay all-zero on both paths.
core::ThreadProfile synthetic_profile(std::size_t units,
                                      std::size_t methods = 40,
                                      std::size_t spare = 0) {
  core::ThreadProfile p;
  for (std::size_t m = 0; m < methods + spare; ++m) {
    p.method_names.push_back("m" + std::to_string(m));
    p.method_kinds.push_back(jvm::OpKind::kMap);
  }
  Rng rng(6);
  for (std::size_t i = 0; i < units; ++i) {
    core::UnitRecord u;
    u.unit_id = i;
    u.counters.instructions = 1'000'000;
    u.counters.cycles =
        1'000'000 + static_cast<std::uint64_t>(rng.next_below(2'000'000));
    for (int j = 0; j < 6; ++j) {
      u.methods.push_back(
          static_cast<jvm::MethodId>((i + 7ull * j) % methods));
      u.counts.push_back(static_cast<std::uint32_t>(1 + rng.next_below(20)));
    }
    p.units.push_back(std::move(u));
  }
  return p;
}

TEST(SparseMatrix, AppendRowAndRowView) {
  stats::SparseMatrix m(3, 5);
  const std::uint32_t c0[] = {1, 4};
  const double v0[] = {2.0, 3.0};
  m.append_row(c0, v0);
  m.append_row({}, {});  // an all-zero row
  const std::uint32_t c2[] = {0};
  const double v2[] = {7.0};
  m.append_row(c2, v2);

  EXPECT_EQ(m.rows_filled(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  const auto r0 = m.row(0);
  ASSERT_EQ(r0.cols.size(), 2u);
  EXPECT_EQ(r0.cols[0], 1u);
  EXPECT_EQ(r0.vals[1], 3.0);
  EXPECT_EQ(m.row(1).cols.size(), 0u);

  const stats::Matrix d = m.to_dense();
  EXPECT_EQ(d.at(0, 1), 2.0);
  EXPECT_EQ(d.at(0, 0), 0.0);
  EXPECT_EQ(d.at(2, 0), 7.0);
}

TEST(SparseMatrix, AppendRowEnforcesContract) {
  stats::SparseMatrix m(1, 4);
  const std::uint32_t unsorted[] = {2, 1};
  const double vals[] = {1.0, 1.0};
  EXPECT_THROW(m.append_row(unsorted, vals), ContractViolation);
  const std::uint32_t oob[] = {4};
  const double one[] = {1.0};
  EXPECT_THROW(m.append_row(oob, one), ContractViolation);
}

TEST(SparseMatrix, FeatureBuilderMatchesDenseBitwise) {
  const core::ThreadProfile profile = synthetic_profile(150);
  const stats::Matrix dense = core::build_feature_matrix(profile);
  const stats::SparseMatrix sparse =
      core::build_sparse_feature_matrix(profile);
  expect_same_matrix(sparse.to_dense(), dense);
}

TEST(SparseMatrix, NormalizeRowsMatchesDense) {
  stats::SparseMatrix sparse(40, 30);
  stats::Matrix dense(40, 30);
  Rng rng(9);
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
  for (std::size_t r = 0; r < 40; ++r) {
    cols.clear();
    vals.clear();
    for (std::uint32_t c = 0; c < 30; ++c) {
      if (rng.next_below(4) != 0) continue;  // ~25% fill
      const double v = rng.next_double(0.0, 50.0);
      cols.push_back(c);
      vals.push_back(v);
      dense.at(r, c) = v;
    }
    sparse.append_row(cols, vals);  // row 7 may end up all-zero — good
  }
  sparse.normalize_rows_l1();
  dense.normalize_rows_l1();
  expect_same_matrix(sparse.to_dense(), dense);
}

TEST(SparseMatrix, SelectColumnsDenseMatchesDenseSelect) {
  const core::ThreadProfile profile = synthetic_profile(300);
  const stats::Matrix dense = core::build_feature_matrix(profile);
  const stats::SparseMatrix sparse =
      core::build_sparse_feature_matrix(profile);
  const std::vector<std::size_t> selected = {39, 0, 17, 3, 24};
  const stats::Matrix expect = dense.select_columns(selected);
  for (std::size_t t : {1u, 2u, 8u}) {
    expect_same_matrix(sparse.select_columns_dense(selected, t), expect);
  }
}

TEST(SparseFRegression, MatchesDenseBitwise) {
  // 2100 rows cross the fixed 1024-row chunk grid twice; method ids 40-47
  // are never touched, giving all-zero columns on both paths.
  const core::ThreadProfile profile = synthetic_profile(2100, 40, 8);
  const stats::Matrix dense = core::build_feature_matrix(profile);
  const stats::SparseMatrix sparse =
      core::build_sparse_feature_matrix(profile);
  std::vector<double> ipc(profile.num_units());
  for (std::size_t u = 0; u < profile.num_units(); ++u) {
    ipc[u] = profile.units[u].ipc();
  }
  const auto base = stats::f_regression(dense, ipc, 1);
  for (std::size_t t : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(stats::f_regression(sparse, ipc, t), base) << "threads=" << t;
    EXPECT_EQ(stats::f_regression(dense, ipc, t), base) << "threads=" << t;
  }
  // Untouched methods (ids 40-47) must score exactly 0 on both paths.
  for (std::size_t f = 40; f < 48; ++f) EXPECT_EQ(base[f], 0.0);
}

}  // namespace
}  // namespace simprof
