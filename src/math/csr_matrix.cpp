#include "math/csr_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace photherm::math {

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
  PH_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

void CsrBuilder::add(std::size_t row, std::size_t col, double value) {
  PH_REQUIRE(row < rows_ && col < cols_, "triplet index out of range");
  triplets_.push_back({static_cast<std::uint32_t>(row), static_cast<std::uint32_t>(col), value});
}

CsrMatrix CsrBuilder::build() const {
  std::vector<Triplet> sorted = triplets_;
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(sorted.size());
  values.reserve(sorted.size());

  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::uint32_t row = sorted[i].row;
    const std::uint32_t col = sorted[i].col;
    double acc = 0.0;
    while (i < sorted.size() && sorted[i].row == row && sorted[i].col == col) {
      acc += sorted[i].value;
      ++i;
    }
    col_idx.push_back(col);
    values.push_back(acc);
    ++row_ptr[row + 1];
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
                     std::vector<std::uint32_t> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  PH_REQUIRE(row_ptr_.size() == rows_ + 1, "row_ptr size must be rows+1");
  PH_REQUIRE(col_idx_.size() == values_.size(), "col_idx/values size mismatch");
  PH_REQUIRE(row_ptr_.back() == values_.size(), "row_ptr must end at nnz");
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  PH_REQUIRE(x.size() == cols_, "SpMV: x size mismatch");
  telemetry::count(telemetry::Counter::kSpmvCsr);
  y.resize(rows_);
  auto rows_kernel = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      double acc = 0.0;
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += values_[k] * x[col_idx_[k]];
      }
      y[r] = acc;
    }
  };
  if (rows_ < util::kSerialCutoff) {
    rows_kernel(0, rows_);
    return;
  }
  // Row-parallel SpMV: disjoint writes, per-row accumulation order
  // unchanged, hence bit-identical to the serial loop.
  util::parallel_for(rows_, util::kKernelGrain / 8, rows_kernel);
}

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply(x, y);
  return y;
}

std::unique_ptr<LinearOperator> CsrMatrix::clone() const {
  return std::make_unique<CsrMatrix>(*this);
}

double CsrMatrix::scaled_row_sum_bound(const Vector& scale) const {
  PH_REQUIRE(scale.size() == rows_, "scaled_row_sum_bound: scale size mismatch");
  double bound = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      sum += std::abs(values_[k]);
    }
    bound = std::max(bound, scale[r] * sum);
  }
  return bound;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  PH_REQUIRE(row < rows_ && col < cols_, "index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(col));
  if (it == end || *it != col) {
    return 0.0;
  }
  return values_[static_cast<std::size_t>(std::distance(col_idx_.begin(), it))];
}

Vector CsrMatrix::diagonal() const {
  Vector d(rows_, 0.0);
  for (std::size_t r = 0; r < std::min(rows_, cols_); ++r) {
    d[r] = at(r, r);
  }
  return d;
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) {
    return false;
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      const double v = values_[k];
      const double vt = at(c, r);
      const double scale = std::max({std::abs(v), std::abs(vt), 1.0});
      if (std::abs(v - vt) > tol * scale) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace photherm::math
