#include "math/solvers.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace photherm::math {

namespace {

/// CG's iteration cap. The pipeline's largest solves (the 0.25 mm package
/// mesh, the 20 um ONI windows) converge in a few hundred iterations.
constexpr std::size_t kMaxIterations = 20000;

/// CG stops on its *recursive* residual, which drifts a little from the
/// true ||b - A x|| after many iterations and across warm-started restarts
/// (the two-level windows, the timeline steps). The final true residual is
/// judged against this multiple of the tolerance, rather than failing
/// solves whose fields are converged far beyond the physics' needs.
constexpr double kTrueResidualSlack = 10.0;

/// The options a solve is judged by, checked before any work: a NaN,
/// negative or zero tolerance would otherwise iterate until the residual
/// underflows and surface as an unrelated breakdown or non-convergence.
void validate(const SolverOptions& options) {
  if (!(std::isfinite(options.rel_tolerance) && options.rel_tolerance > 0.0)) {
    std::ostringstream os;
    os << "conjugate_gradient: rel_tolerance must be finite and > 0 (got "
       << options.rel_tolerance << ")";
    throw Error(os.str());
  }
}

/// Judges the solve by its true residual b - A x, computed in `work`.
SolverResult finalize(const LinearOperator& a, const Vector& b, const Vector& x, Vector& work,
                      std::size_t iters, double norm_b, const SolverOptions& options) {
  a.apply(x, work);
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i] = b[i] - work[i];
  }
  SolverResult result;
  result.iterations = iters;
  result.residual_norm = norm2(work);
  result.relative_residual = norm_b > 0.0 ? result.residual_norm / norm_b : result.residual_norm;
  telemetry::count(telemetry::Counter::kCgSolves);
  telemetry::count(telemetry::Counter::kCgIterations, iters);
  telemetry::gauge(telemetry::Gauge::kCgRelativeResidual, result.relative_residual);
  if (!(result.relative_residual <= options.rel_tolerance * kTrueResidualSlack)) {
    std::ostringstream os;
    os << "conjugate_gradient failed to converge after " << iters
       << " iterations (relative residual = " << result.relative_residual << ")";
    throw SolverError(os.str());
  }
  result.converged = true;
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
  validate(options);
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

  // Three work vectors: the residual r, the direction p, and w, which
  // holds A p from the SpMV until cg_update has read it, then
  // z = M^{-1} r from the preconditioner until xpby has read it.
  Vector r;
  a.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
  }
  Vector w(n);
  precond.apply(r, w);
  Vector p = w;
  // {r·z, r·r} from one pass; r·r is norm2(r)² bit for bit.
  DotPair r_dots = dot_pair(r, w);

  std::vector<double> history;
  std::size_t it = 0;
  for (; it < kMaxIterations; ++it) {
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
    const double p_ap = a.apply_dot(p, w);
    if (!std::isfinite(p_ap)) {
      throw SolverError(
          "CG breakdown: the iterate is not finite (p'Ap overflowed or is NaN); the initial "
          "guess or right-hand side is too large to solve in double precision");
    }
    PH_REQUIRE(p_ap > 0.0, "CG breakdown: matrix is not positive definite");
    const double alpha = r_dots.ab / p_ap;
    cg_update(alpha, p, w, x, r);
    precond.apply(r, w);
    const DotPair next = dot_pair(r, w);
    const double beta = next.ab / r_dots.ab;
    r_dots = next;
    xpby(w, beta, p);
  }
  SolverResult result = finalize(a, b, x, w, it, norm_b, options);
  result.convergence = std::move(history);
  return result;
}

SolverResult conjugate_gradient(const LinearOperator& a, const Vector& b, Vector& x,
                                const SolverOptions& options) {
  validate(options);
  const auto precond = make_preconditioner(options.preconditioner, a, options.chebyshev);
  return conjugate_gradient(a, b, x, *precond, options);
}

std::string to_string(const SolverResult& result) {
  std::ostringstream os;
  os << (result.converged ? "converged" : "NOT converged") << " in " << result.iterations
     << " iterations, relative residual " << result.relative_residual;
  return os.str();
}

}  // namespace photherm::math
