#include "stats/sparse.h"

#include <limits>

#include "support/assert.h"
#include "support/thread_pool.h"

namespace simprof::stats {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  row_ptr_.reserve(rows + 1);
}

void SparseMatrix::append_row(std::span<const std::uint32_t> cols,
                              std::span<const double> vals) {
  SIMPROF_EXPECTS(rows_filled() < rows_, "appending past declared row count");
  SIMPROF_EXPECTS(cols.size() == vals.size(), "cols/vals length mismatch");
  std::uint32_t prev = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    SIMPROF_EXPECTS(cols[i] < cols_, "sparse column out of range");
    SIMPROF_EXPECTS(prev == std::numeric_limits<std::uint32_t>::max() ||
                        cols[i] > prev,
                    "sparse row columns must be strictly increasing");
    prev = cols[i];
  }
  col_.insert(col_.end(), cols.begin(), cols.end());
  val_.insert(val_.end(), vals.begin(), vals.end());
  row_ptr_.push_back(col_.size());
}

SparseMatrix::RowView SparseMatrix::row(std::size_t r) const {
  SIMPROF_EXPECTS(r < rows_filled(), "sparse row out of range");
  const std::size_t b = row_ptr_[r];
  const std::size_t e = row_ptr_[r + 1];
  return {{col_.data() + b, e - b}, {val_.data() + b, e - b}};
}

void SparseMatrix::normalize_rows_l1() {
  SIMPROF_EXPECTS(rows_filled() == rows_, "matrix not fully built");
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t b = row_ptr_[r];
    const std::size_t e = row_ptr_[r + 1];
    double sum = 0.0;
    for (std::size_t i = b; i < e; ++i) sum += val_[i];
    if (sum <= 0.0) continue;
    for (std::size_t i = b; i < e; ++i) val_[i] /= sum;
  }
}

Matrix SparseMatrix::to_dense() const {
  SIMPROF_EXPECTS(rows_filled() == rows_, "matrix not fully built");
  Matrix out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    auto dst = out.row(r);
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      dst[col_[i]] = val_[i];
    }
  }
  return out;
}

Matrix SparseMatrix::select_columns_dense(
    std::span<const std::size_t> selected, std::size_t threads) const {
  SIMPROF_EXPECTS(rows_filled() == rows_, "matrix not fully built");
  // Inverse map: full column id → position in the selection (or npos).
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> position(cols_, kNone);
  for (std::size_t j = 0; j < selected.size(); ++j) {
    SIMPROF_EXPECTS(selected[j] < cols_, "selected column out of range");
    position[selected[j]] = j;
  }
  Matrix out(rows_, selected.size());
  support::parallel_for(
      threads, 0, rows_, 256,
      [&](std::size_t, std::size_t rb, std::size_t re) {
        for (std::size_t r = rb; r < re; ++r) {
          auto dst = out.row(r);
          for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
            const std::size_t p = position[col_[i]];
            if (p != kNone) dst[p] = val_[i];
          }
        }
      });
  return out;
}

}  // namespace simprof::stats
