#include "math/stencil_operator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace photherm::math {

namespace {

/// Branch-free interior rows: y[k] = the seven coefficient * neighbour
/// products of row k, summed in the fixed down..up order. Each operand is
/// pre-offset so that every stream is read at the same index k: x by its
/// neighbour's stride, and the down/south/west coefficients — the up/north/
/// east streams, which store each face once — by the same stride backward.
/// The loop vectorizes, and rows are independent lanes, so each row's sum
/// rounds exactly as in the scalar loop. Only y is written, so the
/// coefficient pointers may alias one another.
void interior_rows(std::size_t count, const double* __restrict down, const double* __restrict south,
                   const double* __restrict west, const double* __restrict diag,
                   const double* __restrict east, const double* __restrict north,
                   const double* __restrict up, const double* x_down, const double* x_south,
                   const double* x_west, const double* x_self, const double* x_east,
                   const double* x_north, const double* x_up, double* __restrict y) {
  for (std::size_t k = 0; k < count; ++k) {
    double acc = down[k] * x_down[k];
    acc += south[k] * x_south[k];
    acc += west[k] * x_west[k];
    acc += diag[k] * x_self[k];
    acc += east[k] * x_east[k];
    acc += north[k] * x_north[k];
    acc += up[k] * x_up[k];
    y[k] = acc;
  }
}

/// Row i's coupling to the cell `stride` rows below it: the +axis coupling
/// that cell stores, or zero when the vector has no such cell.
double lower(const Vector& upper, std::size_t i, std::size_t stride) {
  return i >= stride ? upper[i - stride] : 0.0;
}

}  // namespace

StencilOperator7::StencilOperator7(std::size_t nx, std::size_t ny, std::size_t nz)
    : nx_(nx), ny_(ny), nz_(nz), n_(nx * ny * nz) {
  PH_REQUIRE(nx > 0 && ny > 0 && nz > 0, "stencil grid dimensions must be positive");
  diag_.assign(n_, 0.0);
  east_ = std::make_shared<Vector>(n_, 0.0);
  north_ = std::make_shared<Vector>(n_, 0.0);
  up_ = std::make_shared<Vector>(n_, 0.0);
}

Vector& StencilOperator7::own(Stream& stream) {
  if (stream.use_count() > 1) {
    stream = std::make_shared<Vector>(*stream);
  }
  return *stream;
}

void StencilOperator7::apply_rows(const Vector& x, Vector& y, std::size_t begin,
                                  std::size_t end) const {
  const std::size_t sy = nx_;
  const std::size_t sz = nx_ * ny_;
  const Vector& east = *east_;
  const Vector& north = *north_;
  const Vector& up = *up_;
  // Guarded row: substitutes 0.0 for out-of-range neighbours. A boundary
  // cell's coefficient toward a missing neighbour is zero, so for rows
  // whose neighbour index merely wraps (e.g. west at ix == 0 reading the
  // previous y-row) the unguarded product is coefficient * finite = +-0.0
  // and the sum is bit-identical to the guarded one; the guards only exist
  // to keep the first/last sz rows from indexing outside x.
  auto guarded_row = [&](std::size_t i) {
    double acc = lower(up, i, sz) * (i >= sz ? x[i - sz] : 0.0);
    acc += lower(north, i, sy) * (i >= sy ? x[i - sy] : 0.0);
    acc += lower(east, i, 1) * (i >= 1 ? x[i - 1] : 0.0);
    acc += diag_[i] * x[i];
    acc += east[i] * (i + 1 < n_ ? x[i + 1] : 0.0);
    acc += north[i] * (i + sy < n_ ? x[i + sy] : 0.0);
    acc += up[i] * (i + sz < n_ ? x[i + sz] : 0.0);
    return acc;
  };
  const std::size_t interior_end = n_ > sz ? n_ - sz : 0;
  std::size_t i = begin;
  for (; i < end && i < sz; ++i) {
    y[i] = guarded_row(i);
  }
  // Branch-free interior: every neighbour index is in bounds, and the
  // accumulation order matches guarded_row exactly.
  const std::size_t interior_stop = std::min(end, interior_end);
  if (i < interior_stop) {
    const double* xi = x.data() + i;
    interior_rows(interior_stop - i, up.data() + i - sz, north.data() + i - sy,
                  east.data() + i - 1, diag_.data() + i, east.data() + i, north.data() + i,
                  up.data() + i, xi - sz, xi - sy, xi - 1, xi, xi + 1, xi + sy, xi + sz,
                  y.data() + i);
    i = interior_stop;
  }
  for (; i < end; ++i) {
    y[i] = guarded_row(i);
  }
}

void StencilOperator7::apply(const Vector& x, Vector& y) const {
  PH_REQUIRE(x.size() == n_, "stencil apply: x size mismatch");
  telemetry::count(telemetry::Counter::kSpmvStencil);
  y.resize(n_);
  util::kernel_for(n_, [&](std::size_t begin, std::size_t end) {
    apply_rows(x, y, begin, end);
  });
}

double StencilOperator7::apply_dot(const Vector& x, Vector& y) const {
  PH_REQUIRE(x.size() == n_, "stencil apply: x size mismatch");
  telemetry::count(telemetry::Counter::kSpmvStencil);
  y.resize(n_);
  // dot(x, y)'s serial loop and chunk partials, each taken while the
  // chunk's rows are still in cache.
  auto rows_dot = [&](std::size_t begin, std::size_t end) {
    apply_rows(x, y, begin, end);
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      acc += x[i] * y[i];
    }
    return acc;
  };
  return util::kernel_reduce(n_, 0.0, rows_dot, [](double acc, double p) { return acc + p; });
}

std::unique_ptr<LinearOperator> StencilOperator7::clone() const {
  return std::make_unique<StencilOperator7>(*this);
}

double StencilOperator7::scaled_row_sum_bound(const Vector& scale) const {
  PH_REQUIRE(scale.size() == n_, "scaled_row_sum_bound: scale size mismatch");
  const std::size_t sy = nx_;
  const std::size_t sz = nx_ * ny_;
  const Vector& east = *east_;
  const Vector& north = *north_;
  const Vector& up = *up_;
  double bound = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double sum = std::abs(lower(up, i, sz)) + std::abs(lower(north, i, sy)) +
                       std::abs(lower(east, i, 1)) + std::abs(diag_[i]) + std::abs(east[i]) +
                       std::abs(north[i]) + std::abs(up[i]);
    bound = std::max(bound, scale[i] * sum);
  }
  return bound;
}

void StencilOperator7::add_to_diagonal(const Vector& delta) {
  PH_REQUIRE(delta.size() == n_, "add_to_diagonal: size mismatch");
  for (std::size_t i = 0; i < n_; ++i) {
    diag_[i] += delta[i];
  }
}

CsrMatrix StencilOperator7::to_csr() const {
  const std::size_t sy = nx_;
  const std::size_t sz = nx_ * ny_;
  const Vector& east = *east_;
  const Vector& north = *north_;
  const Vector& up = *up_;
  CsrBuilder builder(n_, n_);
  builder.reserve(7 * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    if (const double down = lower(up, i, sz); down != 0.0) {
      builder.add(i, i - sz, down);
    }
    if (const double south = lower(north, i, sy); south != 0.0) {
      builder.add(i, i - sy, south);
    }
    if (const double west = lower(east, i, 1); west != 0.0) {
      builder.add(i, i - 1, west);
    }
    builder.add(i, i, diag_[i]);
    if (east[i] != 0.0) {
      builder.add(i, i + 1, east[i]);
    }
    if (north[i] != 0.0) {
      builder.add(i, i + sy, north[i]);
    }
    if (up[i] != 0.0) {
      builder.add(i, i + sz, up[i]);
    }
  }
  return builder.build();
}

StencilOperator7 StencilOperator7::from_csr(const CsrMatrix& a, std::size_t nx, std::size_t ny,
                                            std::size_t nz) {
  StencilOperator7 op(nx, ny, nz);
  PH_REQUIRE(a.rows() == op.rows() && a.cols() == op.cols(),
             "from_csr: matrix does not match the nx*ny*nz grid");
  const std::size_t sy = nx;
  const std::size_t sz = nx * ny;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (std::size_t i = 0; i < op.n_; ++i) {
    const std::size_t ix = i % nx;
    const std::size_t iy = (i / nx) % ny;
    const std::size_t iz = i / sz;
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t j = col_idx[k];
      const double v = values[k];
      if (j == i) {
        op.diag_[i] = v;
        continue;
      }
      if ((j + 1 == i && ix > 0) || (j + sy == i && iy > 0) || (j + sz == i && iz > 0)) {
        // A -axis coupling: the operator holds it as the +axis one of j.
      } else if (j == i + 1 && ix + 1 < nx) {
        (*op.east_)[i] = v;
      } else if (j == i + sy && iy + 1 < ny) {
        (*op.north_)[i] = v;
      } else if (j == i + sz && iz + 1 < nz) {
        (*op.up_)[i] = v;
      } else {
        std::ostringstream os;
        os << "from_csr: entry (" << i << ", " << j
           << ") falls outside the 7-point stencil pattern";
        throw Error(os.str());
      }
      const double mirror = a.at(j, i);
      if (std::bit_cast<std::uint64_t>(v) != std::bit_cast<std::uint64_t>(mirror)) {
        std::ostringstream os;
        os << std::setprecision(17) << "from_csr: entry (" << i << ", " << j << ") = " << v
           << " differs from its mirror (" << j << ", " << i << ") = " << mirror
           << "; the stencil stores one coupling per face, so the matrix must be symmetric "
              "bit for bit (a missing entry counts as 0)";
        throw Error(os.str());
      }
    }
  }
  return op;
}

}  // namespace photherm::math
