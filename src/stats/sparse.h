// Compressed-sparse-row feature matrix — the sparse sibling of stats::Matrix
// for the unit × method frequency matrices of phase formation. A profile's
// units touch a few dozen methods each out of thousands, so the dense matrix
// is ~99% zeros; the CSR form is built once per form_phases call and
// densified only for the selected top-K feature columns.
//
// Bit-compatibility contract with the dense path: values are stored exactly
// as the dense matrix would hold them, rows normalize by the same sums
// (implicit zeros contribute exact +0.0 terms), and select_columns_dense
// produces a matrix bitwise equal to Matrix::select_columns on the
// equivalent dense matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/matrix.h"

namespace simprof::stats {

class SparseMatrix {
 public:
  SparseMatrix() = default;
  /// An empty matrix with a fixed shape; fill it with append_row in row
  /// order (the builder-style API keeps the CSR arrays contiguous).
  SparseMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Append the next row's non-zero entries. `cols` must be strictly
  /// increasing and in range; exactly `rows()` rows must be appended
  /// (appending past the declared shape is a contract violation).
  void append_row(std::span<const std::uint32_t> cols,
                  std::span<const double> vals);

  /// How many rows have been appended so far.
  std::size_t rows_filled() const { return row_ptr_.size() - 1; }

  struct RowView {
    std::span<const std::uint32_t> cols;
    std::span<const double> vals;
  };
  RowView row(std::size_t r) const;

  /// Scale each row to sum 1, like Matrix::normalize_rows_l1 (rows summing
  /// to 0 are left untouched). Sums accumulate over the stored entries in
  /// column order — bitwise the same sum the dense walk produces, because
  /// the skipped zeros are exact no-ops.
  void normalize_rows_l1();

  /// Densify every column (tests / small matrices).
  Matrix to_dense() const;

  /// Densify only the given columns, in the given order — the top-K
  /// selection path. Bitwise equal to to_dense().select_columns(selected).
  /// Row blocks run on the thread pool (threads = 0 → global default);
  /// rows are disjoint so the result is trivially deterministic.
  Matrix select_columns_dense(std::span<const std::size_t> selected,
                              std::size_t threads = 0) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};  ///< rows_+1 once fully built
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
};

}  // namespace simprof::stats
