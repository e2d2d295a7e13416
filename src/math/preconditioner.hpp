/// \file preconditioner.hpp
/// \brief Preconditioners for the Krylov solvers: zero-fill ILU with
/// relaxed pivots — on CSR sparsity or natively on the 7-point stencil —
/// and a fixed-degree Chebyshev polynomial. The FVM conduction matrix is
/// an SPD M-matrix, so the factor exists and is stable without pivoting.
///
/// Every preconditioner owns all the data it applies — none keeps a
/// pointer into the caller's matrix — so rebuilding or destroying A after
/// construction can never make apply() read freed or stale storage (the
/// stencil ILU(0) factor co-owns A's couplings, see StencilOperator7). A
/// preconditioner built for one A stays a *valid* (merely outdated)
/// preconditioner if the caller later changes A; callers that reassemble
/// (the transient stepping path) rebuild their cached preconditioner
/// alongside the operator.
#pragma once

#include <memory>

#include "math/csr_matrix.hpp"
#include "math/linear_operator.hpp"
#include "math/stencil_operator.hpp"

namespace photherm::math {

/// Applies z = M^{-1} r for some approximation M of A.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// Threads within the util::concurrency() budget; results are
  /// bit-identical at every thread count. The SpMV-based Chebyshev apply
  /// threads chunk-ordered, and the stencil ILU(0) pipelines its
  /// triangular sweeps across y-bands of the grid (see
  /// StencilIlu0Preconditioner). The CSR ILU(0) triangular solves run
  /// serially in natural row order.
  virtual void apply(const Vector& r, Vector& z) const = 0;
};

/// Relaxation factor of the zero-fill factor behind PreconditionerKind::kIlu0
/// (relaxed ILU, RILU): each update the factorisation would make outside
/// A's sparsity pattern — fill that plain ILU(0) drops — is instead
/// subtracted from the row's pivot, scaled by this factor. 0 is plain
/// ILU(0), 1 is modified ILU (MILU, row sums preserved). Folding the fill
/// back in cuts the CG iterations by about a third on the FVM meshes; 0.99
/// sits in the textbook RILU range and near the optimum of a scan over the
/// ONI windows and the global meshes (Gustafsson, BIT 18 (1978) 142–156;
/// Axelsson & Lindskog, Numer. Math. 48 (1986) 479–498).
inline constexpr double kIlu0Relaxation = 0.99;

/// Incomplete LU with zero fill-in on the sparsity pattern of A and relaxed
/// pivots ("ilu0" names this factor). The IKJ factorisation eliminates row
/// i's strictly-lower entries j in column order; each update
/// l_ij * u_jk of row j's upper entries k in column order lands on (i, k)
/// when k is in row i's pattern, exactly as in ILU(0), and is otherwise
/// subtracted from the pivot as kIlu0Relaxation * (l_ij * u_jk).
class Ilu0Preconditioner final : public Preconditioner {
 public:
  explicit Ilu0Preconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;

 private:
  // Factor stored on A's pattern: strictly-lower entries hold L (unit
  // diagonal implied), diagonal + strictly-upper hold U.
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
  std::vector<std::size_t> diag_pos_;
  std::size_t n_ = 0;
};

/// The relaxed zero-fill factor of Ilu0Preconditioner on a 7-point stencil
/// operator, with no CSR. The grid graph has no triangles, so the factor
/// leaves every off-diagonal entry alone: M = (D + L_A) D^{-1} (D + U_A),
/// where L_A / U_A are the strictly lower / upper parts of A and only the
/// pivots D change (Saad, Iterative Methods for Sparse Linear Systems,
/// §10.3). With l_ij = a_ij / d_j and omega = kIlu0Relaxation,
///   d_i = a_ii - sum_{j in down, south, west} sum_{k in east, north, up of j}
///                  (k == i ? l_ij * a_jk : omega * (l_ij * a_jk)),
/// subtracted in exactly that order — the column order of the CSR IKJ
/// factor, so on the same coefficients the pivots equal
/// Ilu0Preconditioner's bit for bit. The two terms per neighbour with
/// k != i are the fill ILU(0) drops; a line of cells has none, so there the
/// factor is the exact LU. So the factor stores only its reciprocal
/// pivots and shares the operator's east/north/up couplings by ownership
/// (StencilOperator7::couplings()); row i's west/south/down couplings are
/// east[i-1], north[i-nx] and up[i-nx*ny]. The apply solves
/// (I + D^{-1} L_A) w = D^{-1} r, then (I + D^{-1} U_A) z = w, in place in
/// z: each neighbour term multiplies the coupling by the row's reciprocal
/// pivot, then that product by the neighbour's value.
///
/// The apply sweeps one x-row at a time. Each row subtracts its neighbour
/// terms in natural-order sequence (down, south, west forward; up, north,
/// east backward) and skips exactly the products whose coefficient is
/// structurally zero at the grid boundary: west at x = 0, south at y = 0,
/// down at z = 0, and their mirror images backward. A skipped product would
/// be ±0, so every nonzero entry of z equals the flat natural-order sweep's
/// bit for bit.
///
/// Within one z-plane, rows couple only through their y-neighbours, so on
/// meshes of at least util::kSerialCutoff cells the apply splits each
/// plane's y-rows into B = min(util::region_executors(), ny) contiguous
/// bands and runs each sweep as a plane pipeline (level scheduling, Saad
/// ch. 11): band b starts plane k once band b-1 has finished it (band b+1
/// in the backward sweep), learned through a per-band plane counter. Every
/// row performs the same operations at every B, so z is bit-identical at
/// any thread count; B = 1 — a budget of one thread, a small mesh, or an
/// apply inside a pool worker — is the serial path. The apply allocates
/// nothing and keeps its counters on the stack, so concurrent applies on
/// one object are safe.
class StencilIlu0Preconditioner final : public Preconditioner {
 public:
  explicit StencilIlu0Preconditioner(const StencilOperator7& a);
  void apply(const Vector& r, Vector& z) const override;

 private:
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::size_t nz_ = 0;
  Vector inv_pivot_;
  StencilOperator7::Couplings couplings_;
};

struct ChebyshevSettings {
  /// Chebyshev steps per apply; an apply costs `degree - 1` operator
  /// applications (plus elementwise work), so the polynomial in A has
  /// degree `degree - 1`. Must be >= 1 (1 degenerates to scaled Jacobi).
  /// The default is the wall-time sweet spot on the fine FVM meshes
  /// (bench_solver_perf BM_CgChebyshevDegree): going from 4 to 8 halves
  /// the CG iteration count for the same wall time, past ~12 the extra
  /// SpMVs per apply cost more than the iterations they save.
  std::size_t degree = 8;
  /// Fallback width of the target interval
  /// [lambda_max / eig_ratio, lambda_max]: modes below the lower bound are
  /// left to CG itself, exactly like a multigrid smoother's split. When the
  /// Gershgorin lower bound (2 - lambda_max in the Jacobi-scaled operator)
  /// is tighter — true for diagonally shifted stepping operators A + C/dt —
  /// that bound wins and eig_ratio is ignored. Must be > 1.
  double eig_ratio = 30.0;
};

/// Fixed-degree Chebyshev polynomial in the Jacobi-scaled operator
/// D^{-1} A: z = p(D^{-1} A) D^{-1} r, with p chosen to approximate the
/// inverse on [lambda_max / eig_ratio, lambda_max] and lambda_max bounded
/// by the (deterministic, iteration-free) Gershgorin row sums. The apply
/// needs nothing but SpMV + elementwise kernels, so it threads
/// chunk-ordered end to end with no sequential sweep at all, and its
/// setup cost is one diagonal pass — exactly what the adaptive-dt
/// reassembly path wants. Symmetric by construction
/// (p(D^{-1}A) D^{-1} = D^{-1/2} p(D^{-1/2} A D^{-1/2}) D^{-1/2}), so CG
/// applies. Owns a clone of the operator: no stale-matrix hazard.
class ChebyshevPreconditioner final : public Preconditioner {
 public:
  explicit ChebyshevPreconditioner(const LinearOperator& a,
                                   const ChebyshevSettings& settings = {});
  void apply(const Vector& r, Vector& z) const override;

  double lambda_max() const { return lambda_max_; }
  double lambda_min() const { return lambda_min_; }

 private:
  std::unique_ptr<const LinearOperator> a_;
  Vector inv_diag_;
  std::size_t degree_;
  double lambda_max_ = 0.0;  ///< of D^{-1} A (Gershgorin bound)
  double lambda_min_ = 0.0;
};

enum class PreconditionerKind { kIlu0, kChebyshev };

const char* to_string(PreconditionerKind kind);

/// Build a preconditioner of `kind` for `a`. Both kinds build on a
/// StencilOperator7; ILU(0) also builds on CSR sparsity and throws an Error
/// on any other operator, while Chebyshev builds on any operator.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const LinearOperator& a,
                                                    const ChebyshevSettings& chebyshev = {});

}  // namespace photherm::math
