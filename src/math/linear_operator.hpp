/// \file linear_operator.hpp
/// \brief Abstract SpMV-shaped operator the Krylov solvers iterate on.
/// Concrete implementations: CsrMatrix (general sparsity) and
/// StencilOperator7 (matrix-free 7-point stencil on a structured grid).
/// Everything a solver or an SpMV-based preconditioner needs is virtual
/// here; ILU(0) downcasts to StencilOperator7 or CsrMatrix, failing with
/// an actionable error otherwise.
#pragma once

#include <cstddef>
#include <memory>

#include "math/vector_ops.hpp"

namespace photherm::math {

class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  virtual std::size_t rows() const = 0;
  virtual std::size_t cols() const = 0;

  /// y = A * x. Implementations thread chunk-ordered over rows (serial
  /// below util::kSerialCutoff) within the util::concurrency() budget, so
  /// the result is bit-identical at every thread count.
  virtual void apply(const Vector& x, Vector& y) const = 0;

  /// y = A * x, returning dot(x, y) — the p'Ap of a CG iteration — bit for
  /// bit. This default is exactly apply then dot; an override may fuse the
  /// two passes but must keep dot's summation order.
  virtual double apply_dot(const Vector& x, Vector& y) const {
    apply(x, y);
    return dot(x, y);
  }

  /// Main diagonal (zero where no entry is stored).
  virtual Vector diagonal() const = 0;

  /// A copy that no later write to, or destruction of, this operator
  /// changes (StencilOperator7 shares its couplings copy-on-write).
  /// Preconditioners that need the operator beyond their constructor
  /// (Chebyshev) clone it so they can never dangle into storage a caller
  /// later rebuilds.
  virtual std::unique_ptr<LinearOperator> clone() const = 0;

  /// max_i scale[i] * sum_j |a_ij|: a Gershgorin-style upper bound on the
  /// spectral radius of diag(scale) * A. With scale = 1/diag(A) this bounds
  /// the Jacobi-scaled spectrum, which is how ChebyshevPreconditioner
  /// obtains its eigenvalue interval without any power iteration.
  virtual double scaled_row_sum_bound(const Vector& scale) const = 0;
};

}  // namespace photherm::math
