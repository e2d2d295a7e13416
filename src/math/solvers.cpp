#include "math/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace photherm::math {

namespace {

/// A solver's name for messages and the three metrics every solve records.
struct SolverMetrics {
  const char* name;
  telemetry::Counter solves;
  telemetry::Counter iterations;
  telemetry::Gauge relative_residual;
};

constexpr SolverMetrics kCgMetrics{"conjugate_gradient", telemetry::Counter::kCgSolves,
                                   telemetry::Counter::kCgIterations,
                                   telemetry::Gauge::kCgRelativeResidual};
constexpr SolverMetrics kGaussSeidelMetrics{"gauss_seidel", telemetry::Counter::kGaussSeidelSolves,
                                            telemetry::Counter::kGaussSeidelIterations,
                                            telemetry::Gauge::kGaussSeidelRelativeResidual};

/// The options a solve is judged by, checked before any work: a NaN,
/// negative or zero tolerance would otherwise iterate until the residual
/// underflows and surface as an unrelated breakdown or non-convergence.
void validate(const SolverOptions& options, const SolverMetrics& solver) {
  if (!(std::isfinite(options.rel_tolerance) && options.rel_tolerance > 0.0)) {
    std::ostringstream os;
    os << solver.name << ": rel_tolerance must be finite and > 0 (got "
       << options.rel_tolerance << ")";
    throw Error(os.str());
  }
  if (!(std::isfinite(options.convergence_slack) && options.convergence_slack >= 1.0)) {
    std::ostringstream os;
    os << solver.name << ": convergence_slack must be finite and >= 1 (got "
       << options.convergence_slack << ")";
    throw Error(os.str());
  }
}

SolverResult finalize(const LinearOperator& a, const Vector& b, const Vector& x,
                      std::size_t iters, double norm_b, const SolverOptions& options,
                      const SolverMetrics& solver) {
  Vector r;
  a.apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
  }
  SolverResult result;
  result.iterations = iters;
  result.residual_norm = norm2(r);
  result.relative_residual = norm_b > 0.0 ? result.residual_norm / norm_b : result.residual_norm;
  telemetry::count(solver.solves);
  telemetry::count(solver.iterations, iters);
  telemetry::gauge(solver.relative_residual, result.relative_residual);
  // Judged on the true residual against the tolerance the caller actually
  // requested; any loosening must be asked for via convergence_slack.
  result.converged =
      result.relative_residual <= options.rel_tolerance * options.convergence_slack;
  if (!result.converged && options.throw_on_failure) {
    std::ostringstream os;
    os << solver.name << " failed to converge after " << iters
       << " iterations (relative residual = " << result.relative_residual << ")";
    throw SolverError(os.str());
  }
  return result;
}

/// Warm-start contract (see solvers.hpp): keep `x` as the initial guess
/// only when it is already exactly the system size; otherwise start from
/// zero instead of inheriting stale or truncated entries.
void prepare_initial_guess(Vector& x, std::size_t n) {
  if (x.size() != n) {
    x.assign(n, 0.0);
  }
}

}  // namespace

SolverResult conjugate_gradient(const LinearOperator& a, const Vector& b, Vector& x,
                                const Preconditioner& precond, const SolverOptions& options) {
  PH_REQUIRE(a.rows() == a.cols(), "CG requires a square matrix");
  PH_REQUIRE(b.size() == a.rows(), "CG: rhs size mismatch");
  validate(options, kCgMetrics);
  telemetry::Span span("solver.conjugate_gradient");
  const std::size_t n = a.rows();
  prepare_initial_guess(x, n);

  const double norm_b = norm2(b);
  if (norm_b == 0.0) {
    x.assign(n, 0.0);
    return {true, 0, 0.0, 0.0, {}};
  }
  // An overflowed input is not a property of the matrix; name it before the
  // iteration turns it into a NaN breakdown.
  if (!std::isfinite(norm_b)) {
    throw SolverError(
        "CG: the right-hand side is not finite (||b|| overflowed or b holds inf/NaN); check "
        "the power and boundary inputs feeding this solve");
  }

  Vector r;
  a.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
  }
  Vector z(n);
  precond.apply(r, z);
  Vector p = z;
  Vector ap(n);
  // {r·z, r·r} from one pass; r·r is norm2(r)² bit for bit.
  DotPair r_dots = dot_pair(r, z);

  std::vector<double> history;
  std::size_t it = 0;
  for (; it < options.max_iterations; ++it) {
    // The iteration's own stopping check; record_convergence captures
    // exactly this value, so the history costs no extra norm.
    const double rel = std::sqrt(r_dots.aa) / norm_b;
    if (options.record_convergence) {
      history.push_back(rel);
      telemetry::counter("solver.conjugate_gradient.residual", rel, it);
    }
    if (rel <= options.rel_tolerance) {
      break;
    }
    const double p_ap = a.apply_dot(p, ap);
    if (!std::isfinite(p_ap)) {
      throw SolverError(
          "CG breakdown: the iterate is not finite (p'Ap overflowed or is NaN); the initial "
          "guess or right-hand side is too large to solve in double precision");
    }
    PH_REQUIRE(p_ap > 0.0, "CG breakdown: matrix is not positive definite");
    const double alpha = r_dots.ab / p_ap;
    cg_update(alpha, p, ap, x, r);
    precond.apply(r, z);
    const DotPair next = dot_pair(r, z);
    const double beta = next.ab / r_dots.ab;
    r_dots = next;
    xpby(z, beta, p);
  }
  SolverResult result = finalize(a, b, x, it, norm_b, options, kCgMetrics);
  result.convergence = std::move(history);
  return result;
}

SolverResult conjugate_gradient(const LinearOperator& a, const Vector& b, Vector& x,
                                const SolverOptions& options) {
  validate(options, kCgMetrics);
  const auto precond = make_preconditioner(options.preconditioner, a, options.chebyshev);
  return conjugate_gradient(a, b, x, *precond, options);
}

SolverResult gauss_seidel(const CsrMatrix& a, const Vector& b, Vector& x,
                          const SolverOptions& options) {
  PH_REQUIRE(a.rows() == a.cols(), "Gauss-Seidel requires a square matrix");
  PH_REQUIRE(b.size() == a.rows(), "Gauss-Seidel: rhs size mismatch");
  validate(options, kGaussSeidelMetrics);
  telemetry::Span span("solver.gauss_seidel");
  const std::size_t n = a.rows();
  prepare_initial_guess(x, n);
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  const double norm_b = norm2(b);
  if (norm_b == 0.0) {
    x.assign(n, 0.0);
    return {true, 0, 0.0, 0.0, {}};
  }

  std::size_t it = 0;
  double stall_check_gate = std::numeric_limits<double>::infinity();
  for (; it < options.max_iterations; ++it) {
    double max_delta = 0.0;
    double max_x = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double diag = 0.0;
      double acc = b[i];
      for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        const std::size_t j = col_idx[k];
        if (j == i) {
          diag = values[k];
        } else {
          acc -= values[k] * x[j];
        }
      }
      PH_REQUIRE(diag != 0.0, "Gauss-Seidel: zero diagonal");
      const double next = acc / diag;
      max_delta = std::max(max_delta, std::abs(next - x[i]));
      max_x = std::max(max_x, std::abs(next));
      x[i] = next;
    }
    // The true residual is the criterion the caller asked for, but it costs
    // an SpMV, so it is only evaluated every 10th sweep, on the final sweep
    // (the old code could run up to 9 sweeps past `max_iterations` intent
    // without ever checking), and whenever the cheap per-sweep update stalls
    // below the tolerance (so the reported iteration count reflects the
    // sweep where convergence actually happened instead of the next
    // multiple of 10).
    const bool update_stalled = max_delta <= options.rel_tolerance * std::max(1.0, max_x) &&
                                max_delta <= stall_check_gate;
    if (it % 10 == 9 || it + 1 == options.max_iterations || update_stalled) {
      Vector r = a.multiply(x);
      for (std::size_t i = 0; i < n; ++i) {
        r[i] = b[i] - r[i];
      }
      const double rel_res = norm2(r) / norm_b;
      if (rel_res <= options.rel_tolerance) {
        ++it;
        break;
      }
      // On slowly converging systems the stall proxy holds long before the
      // residual does, and without a gate it would trigger the (SpMV-priced)
      // check on every remaining sweep. The update and the residual decay at
      // the same asymptotic rate, so project: skip stall checks until the
      // update has shrunk in proportion to the remaining residual gap, with
      // a 10x margin so per-sweep checks resume on the final approach and
      // the reported iteration count stays minimal.
      stall_check_gate = rel_res > 10.0 * options.rel_tolerance
                             ? max_delta * (10.0 * options.rel_tolerance / rel_res)
                             : std::numeric_limits<double>::infinity();
    }
  }
  return finalize(a, b, x, it, norm_b, options, kGaussSeidelMetrics);
}

std::string to_string(const SolverResult& result) {
  std::ostringstream os;
  os << (result.converged ? "converged" : "NOT converged") << " in " << result.iterations
     << " iterations, relative residual " << result.relative_residual;
  return os.str();
}

}  // namespace photherm::math
