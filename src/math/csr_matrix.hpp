/// \file csr_matrix.hpp
/// \brief Compressed-sparse-row matrix with a triplet builder. The finite
/// volume assembler produces a 7-point stencil per cell; the builder merges
/// duplicate entries so assembly code can simply accumulate contributions.
#pragma once

#include <cstdint>
#include <vector>

#include "math/linear_operator.hpp"
#include "math/vector_ops.hpp"

namespace photherm::math {

/// One (row, col, value) contribution.
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

class CsrMatrix;

/// Accumulates triplets; duplicates are summed when `build()` is called.
class CsrBuilder {
 public:
  explicit CsrBuilder(std::size_t rows, std::size_t cols);

  void add(std::size_t row, std::size_t col, double value);
  void reserve(std::size_t nnz_estimate) { triplets_.reserve(nnz_estimate); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  CsrMatrix build() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

/// Immutable CSR matrix.
class CsrMatrix : public LinearOperator {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
            std::vector<std::uint32_t> col_idx, std::vector<double> values);

  std::size_t rows() const override { return rows_; }
  std::size_t cols() const override { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A * x. Rows are computed independently (each writes one y entry),
  /// so the result is bit-identical for every thread count; matrices below
  /// `util::kSerialCutoff` rows stay serial.
  void multiply(const Vector& x, Vector& y) const;
  Vector multiply(const Vector& x) const;

  /// LinearOperator interface (same kernel as multiply).
  void apply(const Vector& x, Vector& y) const override { multiply(x, y); }
  std::unique_ptr<LinearOperator> clone() const override;
  double scaled_row_sum_bound(const Vector& scale) const override;

  /// Value at (row, col); zero if not stored. O(log nnz_row).
  double at(std::size_t row, std::size_t col) const;

  /// Diagonal as a vector (zero where no stored diagonal entry).
  Vector diagonal() const override;

  /// Structural symmetry + value symmetry check within `tol` (relative).
  /// The steady-state conduction operator must be symmetric; the FVM tests
  /// assert this.
  bool is_symmetric(double tol = 1e-10) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace photherm::math
