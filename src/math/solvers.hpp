/// \file solvers.hpp
/// \brief Iterative linear solvers. The conduction operator is SPD by
/// construction, steady and transient alike, so CG is the solver.
#pragma once

#include <string>
#include <vector>

#include "math/linear_operator.hpp"
#include "math/preconditioner.hpp"

namespace photherm::math {

struct SolverOptions {
  double rel_tolerance = 1e-9;   ///< on ||r|| / ||b||
  std::size_t max_iterations = 20000;
  PreconditionerKind preconditioner = PreconditionerKind::kIlu0;
  /// Used only when `preconditioner == kChebyshev`.
  ChebyshevSettings chebyshev;
  bool throw_on_failure = true;  ///< if false, return best-effort result
  /// Multiplier (>= 1) on `rel_tolerance` when the final true residual is
  /// judged for `SolverResult::converged`. The default of 1 reports against
  /// exactly the tolerance the caller requested. Krylov iterations track a
  /// *recursive* residual that can drift a little from the true
  /// ||b - A x||, so callers that restart solves with warm starts (the FVM
  /// stack) opt into a small explicit slack instead of the old behaviour of
  /// silently accepting 10x the requested tolerance.
  double convergence_slack = 1.0;
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
/// with stale entries. `x` receives the solution.

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
