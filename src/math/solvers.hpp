/// \file solvers.hpp
/// \brief Iterative linear solvers. The conduction operator is SPD by
/// construction, steady and transient alike, so CG is the solver.
#pragma once

#include <string>
#include <vector>

#include "math/linear_operator.hpp"
#include "math/preconditioner.hpp"

namespace photherm::math {

/// The one CG configuration the pipeline solves with: the steady coarse and
/// window passes, the transient steps and the timeline's steady reference
/// all take `SolverOptions{}` (the reference tightens `rel_tolerance` only
/// under a settle tolerance its noise would swamp). CG stops once its
/// recursive residual reaches `rel_tolerance`, gives up after a fixed cap
/// of 20,000 iterations, and throws SolverError unless the final true
/// residual is within 10 x `rel_tolerance` (solvers.cpp says why).
struct SolverOptions {
  double rel_tolerance = 1e-10;  ///< on ||r|| / ||b||
  PreconditionerKind preconditioner = PreconditionerKind::kIlu0;
  /// Used only when `preconditioner == kChebyshev`.
  ChebyshevSettings chebyshev;
  /// Capture the per-iteration recursive relative residual (||r|| / ||b||
  /// at the top of each CG iteration, including the final accepted
  /// check) into SolverResult::convergence, and — when telemetry is
  /// recording — emit each sample as a plottable trace counter event
  /// (`solver.<name>.residual`). Off by default: the history allocates per
  /// solve, and nothing on the hot path should pay for observability it
  /// did not ask for. The captured values are the norms the iteration
  /// already computes, so enabling this never perturbs the solve
  /// (bit-identical results, any thread count).
  bool record_convergence = false;
};

struct SolverResult {
  /// True on every return: CG throws SolverError instead of returning an
  /// unconverged result.
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;    ///< final ||b - A x||
  double relative_residual = 0.0;
  /// Per-iteration recursive relative residuals, captured only when
  /// SolverOptions::record_convergence is set (empty otherwise). Entry k is
  /// the residual entering iteration k; when the solve converges via the
  /// iteration check, the last entry is the accepted residual.
  std::vector<double> convergence;
};

/// Warm-start contract of both CG overloads below: `x` is used as the
/// initial guess if and only if `x.size()` already equals the system size;
/// any other size (including empty) is reset to the zero vector. A
/// correctly sized vector is therefore never silently truncated or padded
/// with stale entries. `x` receives the solution, or the last iterate when
/// CG throws SolverError.

/// Preconditioned conjugate gradient. Builds the preconditioner named by
/// `options.preconditioner` for this solve.
SolverResult conjugate_gradient(const LinearOperator& a, const Vector& b, Vector& x,
                                const SolverOptions& options = {});

/// CG with a caller-owned preconditioner: `options.preconditioner` is
/// ignored and `precond` is applied as-is. This is the hot-path overload —
/// a transient stepper that solves the same operator every step builds M
/// once and amortises the setup (ILU(0) factorisation, Chebyshev bounds)
/// across the whole run instead of paying it per solve.
SolverResult conjugate_gradient(const LinearOperator& a, const Vector& b, Vector& x,
                                const Preconditioner& precond, const SolverOptions& options = {});

std::string to_string(const SolverResult& result);

}  // namespace photherm::math
