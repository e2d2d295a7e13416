#include "math/solvers.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "support/fixtures.hpp"
#include "thermal/fvm.hpp"
#include "thermal/transient.hpp"
#include "timeline/playback.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace photherm::math {
namespace {

/// 1-D Laplacian (SPD) of size n with Dirichlet-like ends.
CsrMatrix laplacian(std::size_t n) {
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.0);
    if (i > 0) {
      builder.add(i, i - 1, -1.0);
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
    }
  }
  return builder.build();
}

class PreconditionerSweep : public ::testing::TestWithParam<PreconditionerKind> {};

TEST_P(PreconditionerSweep, CgSolvesLaplacian) {
  const std::size_t n = 200;
  const CsrMatrix a = laplacian(n);
  Vector x_true(n);
  Rng rng(7);
  for (double& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const Vector b = a.multiply(x_true);

  Vector x;
  SolverOptions options;
  options.preconditioner = GetParam();
  const SolverResult result = conjugate_gradient(a, b, x, options);
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPreconditioners, PreconditionerSweep,
                         ::testing::Values(PreconditionerKind::kIlu0,
                                           PreconditionerKind::kChebyshev),
                         [](const auto& info) {
                           switch (info.param) {
                             case PreconditionerKind::kIlu0:
                               return "Ilu0";
                             case PreconditionerKind::kChebyshev:
                               return "Chebyshev";
                           }
                           return "Unknown";
                         });

TEST(Solvers, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = laplacian(10);
  Vector x;
  const SolverResult result = conjugate_gradient(a, Vector(10, 0.0), x);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  for (double v : x) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

/// CG against an independent reference: the steady solve of a small
/// non-uniform mesh with every face non-adiabatic must match a dense
/// direct solve of the same assembled system.
TEST(Solvers, CgAgreesWithADenseDirectSolve) {
  const mesh::RectilinearMesh mesh = fixtures::heated_mesh(120e-6, 70e-6);
  ASSERT_EQ(mesh.cell_count(), 270u);
  const thermal::BoundarySet bcs = fixtures::all_faces_bcs();
  const thermal::StencilSystem system = thermal::assemble_stencil(mesh, bcs);
  const Vector reference = fixtures::dense_solve(system.op, system.rhs);
  const Vector cg = thermal::solve_steady_state(mesh, bcs).temperatures();
  ASSERT_EQ(cg.size(), reference.size());
  for (std::size_t i = 0; i < cg.size(); ++i) {
    EXPECT_NEAR(cg[i], reference[i], 1e-7) << "cell " << i;
  }
}

TEST(Solvers, CgRejectsIndefiniteMatrix) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, -1.0);
  const CsrMatrix a = builder.build();
  Vector x;
  EXPECT_THROW(conjugate_gradient(a, {1.0, 1.0}, x), Error);
}

/// An overflow is not a property of the matrix: CG must say the inputs are
/// not finite instead of reporting a positive-definiteness breakdown.
TEST(Solvers, CgNamesAnOverflowAsAnOverflow) {
  const std::size_t n = 30;
  const CsrMatrix a = laplacian(n);
  const auto expect_not_finite = [&](const Vector& b, Vector x) {
    try {
      conjugate_gradient(a, b, x);
      FAIL() << "expected SolverError";
    } catch (const SolverError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("not finite"), std::string::npos) << what;
      EXPECT_EQ(what.find("positive definite"), std::string::npos) << what;
    }
  };
  // Every entry finite, ||b|| overflows.
  expect_not_finite(Vector(n, 1e308), {});
  Vector b_inf(n, 1.0);
  b_inf[7] = std::numeric_limits<double>::infinity();
  expect_not_finite(b_inf, {});
  // A finite rhs with a warm start so large that p'Ap overflows.
  Vector huge(n);
  for (std::size_t i = 0; i < n; ++i) {
    huge[i] = i % 2 == 0 ? 1e300 : -1e300;
  }
  expect_not_finite(Vector(n, 1.0), huge);
}

/// A NaN, negative or zero tolerance used to iterate until the residual
/// underflowed and then surface as an overflow breakdown or a failure to
/// converge. It must be named before any work, by both CG overloads.
TEST(Solvers, InvalidOptionsAreNamedBeforeIterating) {
  const StencilOperator7 a = fixtures::diagonally_dominant_stencil(20, 20, 20, 29);
  const StencilIlu0Preconditioner precond(a);
  const Vector b(a.rows(), 1.0);
  const auto expect_named = [](const auto& solve, const std::string& option) {
    try {
      solve();
      ADD_FAILURE() << "expected Error naming " << option;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(option), std::string::npos) << what;
      EXPECT_EQ(what.find("not finite"), std::string::npos) << what;
      EXPECT_EQ(what.find("positive definite"), std::string::npos) << what;
      EXPECT_EQ(what.find("failed to converge"), std::string::npos) << what;
    }
  };
  const auto expect_rejected = [&](const SolverOptions& options, const std::string& option) {
    expect_named(
        [&] {
          Vector x;
          conjugate_gradient(a, b, x, options);
        },
        option);
    expect_named(
        [&] {
          Vector x;
          conjugate_gradient(a, b, x, precond, options);
        },
        option);
  };
  telemetry::set_enabled(true);
  telemetry::reset();
  for (const double tolerance : {std::numeric_limits<double>::quiet_NaN(), -1.0, 0.0}) {
    SCOPED_TRACE(testing::Message() << "rel_tolerance " << tolerance);
    SolverOptions options;
    options.rel_tolerance = tolerance;
    expect_rejected(options, "rel_tolerance");
  }
  const std::string metrics = telemetry::metrics_csv();
  telemetry::set_enabled(false);
  telemetry::reset();
  EXPECT_NE(metrics.find("\nspmv.stencil,counter,0,0,"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("\nspmv.csr,counter,0,0,"), std::string::npos) << metrics;
}

/// The steady passes, the transient steps and the timeline all solve with
/// the one configuration `SolverOptions{}`: ILU(0) at 1e-10.
TEST(Solvers, EveryPipelineSolveRunsTheDefaultOptions) {
  const SolverOptions defaults;
  EXPECT_EQ(defaults.rel_tolerance, 1e-10);
  EXPECT_EQ(defaults.preconditioner, PreconditionerKind::kIlu0);
  EXPECT_FALSE(defaults.record_convergence);
  const auto expect_defaults = [&](const SolverOptions& options, const char* owner) {
    SCOPED_TRACE(owner);
    EXPECT_EQ(options.rel_tolerance, defaults.rel_tolerance);
    EXPECT_EQ(options.preconditioner, defaults.preconditioner);
    EXPECT_EQ(options.chebyshev.degree, defaults.chebyshev.degree);
    EXPECT_EQ(options.chebyshev.eig_ratio, defaults.chebyshev.eig_ratio);
    EXPECT_EQ(options.record_convergence, defaults.record_convergence);
  };
  expect_defaults(thermal::SteadyStateOptions{}.solver, "SteadyStateOptions");
  expect_defaults(thermal::TransientOptions{}.solver, "TransientOptions");
  expect_defaults(timeline::PlaybackOptions{}.solver, "PlaybackOptions");
}

TEST(Solvers, WarmStartReducesIterations) {
  const std::size_t n = 300;
  const CsrMatrix a = laplacian(n);
  const Vector b(n, 1.0);
  Vector cold;
  const auto cold_result = conjugate_gradient(a, b, cold);
  Vector warm = cold;  // exact solution as initial guess
  const auto warm_result = conjugate_gradient(a, b, warm);
  EXPECT_LT(warm_result.iterations, cold_result.iterations);
}

// --- CG's stopping rule. ----------------------------------------------------

/// An operator whose CG iteration product drifts from its residual product:
/// apply() is A, apply_dot() is (1 + drift) A. CG's recursive residual then
/// tracks b - (1 + drift) A x, so wherever it stops, the true relative
/// residual ||b - A x|| / ||b|| lies within the tolerance of
/// drift / (1 + drift): a test places the true residual that the stopping
/// rule judges.
class DriftingOperator final : public LinearOperator {
 public:
  DriftingOperator(StencilOperator7 a, double drift) : a_(std::move(a)), drift_(drift) {}
  std::size_t rows() const override { return a_.rows(); }
  std::size_t cols() const override { return a_.cols(); }
  void apply(const Vector& x, Vector& y) const override { a_.apply(x, y); }
  double apply_dot(const Vector& x, Vector& y) const override {
    a_.apply(x, y);
    for (double& v : y) {
      v *= 1.0 + drift_;
    }
    return dot(x, y);
  }
  Vector diagonal() const override { return a_.diagonal(); }
  std::unique_ptr<LinearOperator> clone() const override {
    return std::make_unique<DriftingOperator>(*this);
  }
  double scaled_row_sum_bound(const Vector& scale) const override {
    return a_.scaled_row_sum_bound(scale);
  }

 private:
  StencilOperator7 a_;
  double drift_;
};

/// ||b - A x|| / ||b||, computed apart from CG.
double true_relative_residual(const LinearOperator& a, const Vector& b, const Vector& x) {
  Vector r;
  a.apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
  }
  return norm2(r) / norm2(b);
}

constexpr double kDrift = 1e-6;

/// CG judges its final true residual against 10x the tolerance: a solve
/// whose true residual (about kDrift) lies between the tolerance and 10x
/// it converges.
TEST(Solvers, TrueResidualWithinTenTimesTheToleranceConverges) {
  const StencilOperator7 stencil = fixtures::diagonally_dominant_stencil(20, 20, 20, 29);
  const StencilIlu0Preconditioner precond(stencil);
  const DriftingOperator a(stencil, kDrift);
  const Vector b(a.rows(), 1.0);
  SolverOptions options;
  options.rel_tolerance = 1.2e-7;  // true residual <= kDrift + 1.2e-7 < 10 x 1.2e-7
  Vector x;
  const SolverResult result = conjugate_gradient(a, b, x, precond, options);
  EXPECT_TRUE(result.converged);
  const double residual = true_relative_residual(a, b, x);
  EXPECT_EQ(result.relative_residual, residual);
  EXPECT_GT(residual, options.rel_tolerance);
  EXPECT_LE(residual, 10.0 * options.rel_tolerance);
}

/// A true residual beyond 10x the tolerance throws SolverError and leaves
/// the last iterate in x.
TEST(Solvers, TrueResidualBeyondTenTimesTheToleranceThrows) {
  const StencilOperator7 stencil = fixtures::diagonally_dominant_stencil(20, 20, 20, 29);
  const StencilIlu0Preconditioner precond(stencil);
  const DriftingOperator a(stencil, kDrift);
  const Vector b(a.rows(), 1.0);
  SolverOptions options;
  options.rel_tolerance = 0.8e-7;  // true residual >= kDrift - 0.8e-7 > 10 x 0.8e-7
  Vector x;
  try {
    conjugate_gradient(a, b, x, precond, options);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("failed to converge"), std::string::npos) << e.what();
  }
  ASSERT_EQ(x.size(), a.rows());
  EXPECT_GT(true_relative_residual(a, b, x), 10.0 * options.rel_tolerance);

  // Without the drift the same tolerance converges. A tolerance below the
  // rounding floor throws too; the last iterate's true residual is that
  // floor, and a solve warm-started from it at the floor stops at once.
  Vector plain;
  EXPECT_TRUE(conjugate_gradient(stencil, b, plain, precond, options).converged);
  options.rel_tolerance = 1e-20;
  Vector last;
  EXPECT_THROW(conjugate_gradient(stencil, b, last, precond, options), SolverError);
  options.rel_tolerance = true_relative_residual(stencil, b, last);
  EXPECT_GT(options.rel_tolerance, 1e-19);
  const SolverResult warm = conjugate_gradient(stencil, b, last, precond, options);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iterations, 0u);
}

/// A stale vector of the wrong size must not leak into the initial guess:
/// the solve must match a cold (zero-guess) start bit for bit.
TEST(Solvers, WrongSizedWarmStartIsResetToZero) {
  const std::size_t n = 120;
  const CsrMatrix a = laplacian(n);
  const Vector b(n, 1.0);

  Vector cold;
  const SolverResult cold_result = conjugate_gradient(a, b, cold);

  Vector stale(n + 37, 1e30);  // wrong size, garbage values
  const SolverResult stale_result = conjugate_gradient(a, b, stale);
  EXPECT_EQ(stale_result.iterations, cold_result.iterations);
  ASSERT_EQ(stale.size(), n);
  EXPECT_EQ(stale, cold);

  Vector undersized(3, 1e30);
  const SolverResult undersized_result = conjugate_gradient(a, b, undersized);
  EXPECT_EQ(undersized_result.iterations, cold_result.iterations);
  EXPECT_EQ(undersized, cold);
}

/// A correctly sized vector IS the initial guess (documented warm-start
/// contract): starting at the exact solution must converge immediately.
TEST(Solvers, CorrectlySizedVectorIsUsedAsGuess) {
  const std::size_t n = 150;
  const CsrMatrix a = laplacian(n);
  Vector x_true(n);
  Rng rng(11);
  for (double& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const Vector b = a.multiply(x_true);
  Vector x = x_true;
  const SolverResult result = conjugate_gradient(a, b, x);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

// --- Preconditioner hazard regressions. -------------------------------------

/// Diagonal matrix with one bad (zero or negative) entry.
CsrMatrix diagonal_matrix(std::size_t n, std::size_t bad_row, double bad_value) {
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, i == bad_row ? bad_value : 2.0);
  }
  return builder.build();
}

/// The guard must fire at construction and name the offending row — a zero
/// diagonal otherwise divides to inf and surfaces much later as a cryptic
/// CG non-convergence.
TEST(Solvers, ConvergenceHistoryIsOffByDefaultAndDeterministic) {
  const std::size_t n = 200;
  const CsrMatrix a = laplacian(n);
  Vector x_true(n);
  Rng rng(7);
  for (double& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const Vector b = a.multiply(x_true);

  // Off by default: no history, no allocation.
  Vector x_plain;
  SolverOptions plain;
  const SolverResult without = conjugate_gradient(a, b, x_plain, plain);
  EXPECT_TRUE(without.convergence.empty());

  // Recording captures exactly the per-iteration stopping check: one entry
  // per iteration entered, monotone start, final entry at or under the
  // tolerance, and the solution bit-identical to the unrecorded solve.
  SolverOptions record;
  record.record_convergence = true;
  const auto record_at = [&](std::size_t threads, Vector& x) {
    fixtures::ScopedConcurrency budget(threads);
    return conjugate_gradient(a, b, x, record);
  };
  Vector x1;
  const SolverResult serial = record_at(1, x1);
  ASSERT_TRUE(serial.converged);
  ASSERT_FALSE(serial.convergence.empty());
  EXPECT_EQ(serial.convergence.size(), serial.iterations + 1);
  EXPECT_DOUBLE_EQ(serial.convergence.front(), 1.0);  // r0 = b with x0 = 0
  EXPECT_LE(serial.convergence.back(), record.rel_tolerance);
  for (std::size_t i = 0; i < x_plain.size(); ++i) {
    ASSERT_EQ(x_plain[i], x1[i]) << i;
  }

  // The history is part of the determinism contract: 1 vs 4 threads must
  // produce bit-identical residual sequences.
  Vector x4;
  const SolverResult threaded = record_at(4, x4);
  ASSERT_EQ(serial.convergence.size(), threaded.convergence.size());
  for (std::size_t i = 0; i < serial.convergence.size(); ++i) {
    ASSERT_EQ(serial.convergence[i], threaded.convergence[i]) << "iteration " << i;
  }
}

TEST(PreconditionerGuards, Ilu0NamesNonPositiveDiagonalRow) {
  try {
    Ilu0Preconditioner precond(diagonal_matrix(8, 5, -0.25));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("row 5"), std::string::npos) << e.what();
  }
}

TEST(PreconditionerGuards, ChebyshevNamesNonPositiveDiagonalRow) {
  try {
    ChebyshevPreconditioner precond(diagonal_matrix(7, 4, 0.0));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("row 4"), std::string::npos) << e.what();
  }
}

/// Ownership contract: Chebyshev clones the operator, so rebuilding or
/// destroying A after construction cannot change what apply() computes.
TEST(PreconditionerGuards, ChebyshevSurvivesMatrixRebuild) {
  const std::size_t n = 50;
  const Vector r(n, 1.0);
  auto a = std::make_unique<CsrMatrix>(laplacian(n));
  const ChebyshevPreconditioner precond(*a);
  Vector z_before;
  precond.apply(r, z_before);
  a.reset();
  Vector z_after;
  precond.apply(r, z_after);
  EXPECT_EQ(z_before, z_after);
}

/// The caller-owned-preconditioner overload must run the exact same
/// iteration as the kind-based one — bit-identical solution and equal
/// iteration count — so callers can cache M across solves without changing
/// results.
TEST(Solvers, CachedPreconditionerOverloadMatchesKindBased) {
  const std::size_t n = 200;
  const CsrMatrix a = laplacian(n);
  const Vector b(n, 1.0);

  SolverOptions options;
  options.preconditioner = PreconditionerKind::kIlu0;
  Vector x_kind;
  const SolverResult by_kind = conjugate_gradient(a, b, x_kind, options);

  const Ilu0Preconditioner cached(a);
  Vector x_cached;
  const SolverResult by_cached = conjugate_gradient(a, b, x_cached, cached, options);

  EXPECT_EQ(by_kind.iterations, by_cached.iterations);
  EXPECT_EQ(x_kind, x_cached);
}

}  // namespace
}  // namespace photherm::math
