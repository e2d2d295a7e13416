/// \file stencil_operator.hpp
/// \brief Matrix-free 7-point stencil operator on a structured nx*ny*nz
/// grid (cell (ix, iy, iz) linearised as ((iz * ny) + iy) * nx + ix, the
/// RectilinearMesh convention). The FVM conduction operator has exactly
/// this shape, so storing one coefficient per face direction removes the
/// CSR column indirection entirely. The operator is symmetric, so each face
/// coupling is stored once, on the cell below the face: an SpMV reads four
/// contiguous coefficient streams (diagonal and the +x/+y/+z couplings)
/// plus x at fixed strides — SIMD-friendly, with well under half the memory
/// traffic of the CSR kernel (no col_idx, no row_ptr, no mirrored values).
/// Row i reads its -x/-y/-z couplings as east[i-1], north[i-nx] and
/// up[i-nx*ny].
///
/// Boundary cells simply carry zero coefficients toward the missing
/// neighbours, so the interior kernel is branch-free. The per-row
/// accumulation order is fixed (down, south, west, diag, east, north, up —
/// ascending column index, matching the CSR kernel's sorted-column order),
/// and rows are chunk-ordered over the shared pool, so results are
/// bit-identical at 1, 2 or N threads, exactly like CsrMatrix::multiply.
///
/// The three coupling streams are shared by ownership, never copied:
/// copies of the operator and the ILU(0) factors built on it hold the same
/// streams (see couplings()). A mutable accessor gives this operator its
/// own copy of a stream that anything else still holds before returning
/// it (copy-on-write), so no write ever reaches another holder.
#pragma once

#include <memory>

#include "math/csr_matrix.hpp"
#include "math/linear_operator.hpp"

namespace photherm::math {

class StencilOperator7 final : public LinearOperator {
 public:
  /// Zero operator on an nx*ny*nz grid; assembly writes the coefficients.
  StencilOperator7(std::size_t nx, std::size_t ny, std::size_t nz);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  std::size_t rows() const override { return n_; }
  std::size_t cols() const override { return n_; }

  /// Coefficient streams: the diagonal and each cell's coupling to its +x
  /// (east, offset +1), +y (north, +nx) and +z (up, +nx*ny) neighbour,
  /// which is also that neighbour's coupling back to the cell. A cell's
  /// coupling toward a missing +axis neighbour must stay zero. A reference
  /// from a mutable coupling accessor may be written only until the
  /// operator is next copied or factored; fetch it again after that.
  Vector& diag() { return diag_; }
  Vector& east() { return own(east_); }
  Vector& north() { return own(north_); }
  Vector& up() { return own(up_); }
  const Vector& diag() const { return diag_; }
  const Vector& east() const { return *east_; }
  const Vector& north() const { return *north_; }
  const Vector& up() const { return *up_; }

  /// The coupling streams, shared: a holder keeps reading these values
  /// after the operator is written through a mutable accessor or
  /// destroyed.
  struct Couplings {
    std::shared_ptr<const Vector> east, north, up;
  };
  Couplings couplings() const { return {east_, north_, up_}; }

  void apply(const Vector& x, Vector& y) const override;
  /// Sums each chunk's x·y partial right after writing that chunk's rows,
  /// in dot()'s chunk order, so the result equals apply then dot bit for
  /// bit without a second pass or pool region.
  double apply_dot(const Vector& x, Vector& y) const override;
  Vector diagonal() const override { return diag_; }
  std::unique_ptr<LinearOperator> clone() const override;
  double scaled_row_sum_bound(const Vector& scale) const override;

  /// diag += delta (size must match). The transient stepping operator
  /// C/dt + A differs from A only on the diagonal, so it is a copy of A
  /// (one diagonal, shared couplings) plus one vector add.
  void add_to_diagonal(const Vector& delta);

  /// Explicit CSR form (tests; CSR-only preconditioners).
  CsrMatrix to_csr() const;

  /// Extract the stencil from a CSR matrix that has pure 7-point structure
  /// on the given grid. Throws Error naming the offending entry if any
  /// entry falls outside the stencil pattern, or if a coupling differs
  /// from its mirror bit for bit (a structurally absent entry counts as
  /// zero): the stencil stores one coupling per face.
  static StencilOperator7 from_csr(const CsrMatrix& a, std::size_t nx, std::size_t ny,
                                   std::size_t nz);

 private:
  using Stream = std::shared_ptr<Vector>;

  /// `stream`, first replaced by a private copy if anything else holds it.
  static Vector& own(Stream& stream);

  /// y[begin, end) = rows begin..end-1 of A x.
  void apply_rows(const Vector& x, Vector& y, std::size_t begin, std::size_t end) const;

  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::size_t nz_ = 0;
  std::size_t n_ = 0;
  Vector diag_;
  Stream east_, north_, up_;
};

}  // namespace photherm::math
