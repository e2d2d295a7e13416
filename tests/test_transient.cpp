#include "thermal/transient.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geometry/stack.hpp"
#include "support/fixtures.hpp"
#include "util/error.hpp"

namespace photherm::thermal {
namespace {

using geometry::Box3;
using geometry::Scene;

struct Rig {
  std::shared_ptr<const mesh::RectilinearMesh> mesh;
  BoundarySet bcs;
};

Rig make_rig(double power) {
  Scene scene = fixtures::uniform_slab(1e-3, 200e-6);
  if (power > 0.0) {
    fixtures::add_heater(
        scene, Box3::make({0.25e-3, 0.25e-3, 0}, {0.75e-3, 0.75e-3, 50e-6}),
        power, "silicon", "source");
  }
  Rig rig;
  rig.mesh =
      fixtures::shared_mesh(scene, fixtures::uniform_mesh_options(125e-6, 50e-6));
  rig.bcs[Face::kZMax] = FaceBc::convection(5e3, 25.0);
  return rig;
}

TEST(Transient, EquilibriumStaysPut) {
  Rig rig = make_rig(0.0);
  TransientOptions options;
  options.time_step = 1e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);
  const auto field = solver.advance(5);
  EXPECT_NEAR(field.global_min(), 25.0, 1e-9);
  EXPECT_NEAR(field.global_max(), 25.0, 1e-9);
}

TEST(Transient, ConvergesToSteadyState) {
  Rig rig = make_rig(0.5);
  const auto steady = solve_steady_state(rig.mesh, rig.bcs);

  TransientOptions options;
  options.time_step = 5e-3;  // a few thermal time constants per step
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);
  const auto field = solver.advance(400);
  EXPECT_NEAR(field.global_max(), steady.global_max(), 0.01);
  EXPECT_NEAR(field.global_min(), steady.global_min(), 0.01);
}

TEST(Transient, MonotoneHeatingFromCold) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 1e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);
  double previous = 25.0;
  for (int step = 0; step < 10; ++step) {
    const double peak = solver.step().global_max();
    EXPECT_GE(peak, previous - 1e-9);
    previous = peak;
  }
  EXPECT_GT(previous, 25.0 + 1e-3);
  EXPECT_NEAR(solver.time(), 10e-3, 1e-12);
}

TEST(Transient, CoolingAfterPowerOff) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 2e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_state(solve_steady_state(rig.mesh, rig.bcs));
  solver.set_power(math::Vector(solver.power().size(), 0.0));
  const double hot = solver.state().global_max();
  const double after = solver.advance(50).global_max();
  EXPECT_LT(after, hot);
  EXPECT_GE(after, 25.0 - 1e-9);
}

TEST(Transient, PowerScaleHalvesEquilibriumRise) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 10e-3;
  TransientSolver full(rig.mesh, rig.bcs, options);
  full.set_uniform_state(25.0);
  TransientSolver half(rig.mesh, rig.bcs, options);
  half.set_uniform_state(25.0);
  math::Vector halved = half.power();
  for (double& p : halved) {
    p *= 0.5;
  }
  half.set_power(halved);
  const double rise_full = full.advance(300).global_max() - 25.0;
  const double rise_half = half.advance(300).global_max() - 25.0;
  EXPECT_NEAR(rise_half, rise_full / 2.0, 0.02 * rise_full);
}

TEST(Transient, StateIsAReferenceNotACopy) {
  Rig rig = make_rig(0.5);
  TransientSolver solver(rig.mesh, rig.bcs, {});
  solver.set_uniform_state(25.0);
  // state() hands out the internally maintained field; repeated calls must
  // not allocate fresh copies (the old accessor returned by value).
  const ThermalField& a = solver.state();
  const ThermalField& b = solver.state();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.global_max(), 25.0);
  solver.step();
  EXPECT_EQ(&solver.state(), &a);  // same object, updated in place
  EXPECT_GT(a.global_max(), 25.0);
}

TEST(Transient, StatsTrackStepsAndIterations) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 1e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  solver.set_uniform_state(25.0);
  EXPECT_EQ(solver.stats().steps, 0u);
  EXPECT_EQ(solver.last_solve().iterations, 0u);
  solver.advance(3);
  const TransientStats& stats = solver.stats();
  EXPECT_EQ(stats.steps, 3u);
  EXPECT_GT(stats.total_cg_iterations, 0u);
  EXPECT_GE(stats.total_cg_iterations, stats.max_cg_iterations);
  EXPECT_TRUE(solver.last_solve().converged);
  EXPECT_LE(solver.last_solve().iterations, stats.max_cg_iterations);
}

TEST(Transient, WarmStartCutsIterationsAndAgreesWithColdStart) {
  Rig rig = make_rig(0.5);
  TransientOptions warm_options;
  warm_options.time_step = 2e-3;
  TransientOptions cold_options = warm_options;
  cold_options.warm_start = false;

  TransientSolver warm(rig.mesh, rig.bcs, warm_options);
  warm.set_uniform_state(25.0);
  TransientSolver cold(rig.mesh, rig.bcs, cold_options);
  cold.set_uniform_state(25.0);
  const ThermalField warm_field = warm.advance(20);
  const ThermalField cold_field = cold.advance(20);

  // Seeding CG with the previous state must be cheaper than restarting from
  // zero every step, and the physics must agree to solver tolerance.
  EXPECT_LT(warm.stats().total_cg_iterations, cold.stats().total_cg_iterations);
  EXPECT_NEAR(warm_field.global_max(), cold_field.global_max(), 1e-6);
  EXPECT_NEAR(warm_field.global_min(), cold_field.global_min(), 1e-6);
}

TEST(Transient, SetPowerValidatesTheSize) {
  Rig rig = make_rig(0.5);
  TransientSolver solver(rig.mesh, rig.bcs, {});
  EXPECT_THROW(solver.set_power(math::Vector(3, 0.0)), Error);
}

TEST(Transient, StepFromTheStateAsGuessMatchesAWarmStep) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 2e-3;
  TransientSolver warm(rig.mesh, rig.bcs, options);
  warm.set_uniform_state(25.0);
  // The guess overrides warm_start: a cold solver handed its own state
  // takes exactly the warm solver's steps.
  options.warm_start = false;
  TransientSolver guessed(rig.mesh, rig.bcs, options);
  guessed.set_uniform_state(25.0);

  for (int step = 0; step < 5; ++step) {
    const math::Vector guess = guessed.state().temperatures();
    const ThermalField& a = warm.step();
    const ThermalField& b = guessed.step(guess);
    ASSERT_EQ(a.temperatures(), b.temperatures()) << "step " << step;
    ASSERT_EQ(warm.last_solve().iterations, guessed.last_solve().iterations) << "step " << step;
  }
  EXPECT_EQ(warm.time(), guessed.time());

  // A guess that does not match the mesh is refused before the step runs.
  EXPECT_THROW(guessed.step(math::Vector(3, 25.0)), Error);
  EXPECT_EQ(guessed.stats().steps, 5u);
  EXPECT_EQ(guessed.time(), warm.time());
}

TEST(Transient, Validation) {
  Rig rig = make_rig(0.1);
  TransientOptions options;
  options.time_step = 0.0;
  EXPECT_THROW(TransientSolver(rig.mesh, rig.bcs, options), Error);
  options.time_step = 1e-3;
  TransientSolver solver(rig.mesh, rig.bcs, options);
  EXPECT_THROW(solver.advance(0), Error);
  EXPECT_THROW(solver.set_time_step(0.0), Error);
  EXPECT_THROW(solver.set_time(-1.0), Error);
}

TEST(Transient, SetTimeStepMatchesAFreshSolverOnTheNewGrid) {
  Rig rig = make_rig(0.5);
  TransientOptions options;
  options.time_step = 2e-3;

  // Step a while on the fine grid, then grow the step 4x mid-flight.
  TransientSolver grown(rig.mesh, rig.bcs, options);
  grown.set_uniform_state(25.0);
  grown.advance(5);
  grown.set_time_step(8e-3);
  EXPECT_EQ(grown.time_step(), 8e-3);
  EXPECT_EQ(grown.stats().reassemblies, 1u);

  // A solver built directly on the coarse grid and seeded with the same
  // state must continue bit-identically: the rebuild's diagonal shift is
  // exactly the construction-time one.
  TransientOptions coarse = options;
  coarse.time_step = 8e-3;
  TransientSolver fresh(rig.mesh, rig.bcs, coarse);
  fresh.set_state(grown.state());
  fresh.set_time(grown.time());
  EXPECT_EQ(fresh.stats().reassemblies, 0u);

  for (int step = 0; step < 5; ++step) {
    const ThermalField& a = grown.step();
    const ThermalField& b = fresh.step();
    ASSERT_EQ(a.temperatures(), b.temperatures()) << "step " << step;
    ASSERT_EQ(grown.time(), fresh.time()) << "step " << step;
  }

  // Same-valued set_time_step is a no-op, not a rebuild.
  grown.set_time_step(8e-3);
  EXPECT_EQ(grown.stats().reassemblies, 1u);
}

/// Backward Euler on the explicit CSR form with CSR ILU(0), stepped by hand
/// from a uniform 25 degC state: a reference for the stencil stepper built
/// from the other assembly, the other operator and the other factor.
std::vector<math::Vector> csr_reference_trajectory(const Rig& rig, double dt, int steps) {
  const DiscreteSystem system = assemble(*rig.mesh, rig.bcs);
  const math::Vector capacitance = heat_capacitance(*rig.mesh);
  const std::size_t n = system.rhs.size();
  math::CsrBuilder builder(n, n);
  const auto& row_ptr = system.matrix.row_ptr();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      builder.add(r, system.matrix.col_idx()[k], system.matrix.values()[k]);
    }
    builder.add(r, r, capacitance[r] / dt);
  }
  const math::CsrMatrix stepping = builder.build();
  const math::Ilu0Preconditioner precond(stepping);
  const TransientOptions options;
  math::Vector state(n, 25.0);
  math::Vector rhs(n);
  std::vector<math::Vector> trajectory;
  for (int step = 0; step < steps; ++step) {
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = capacitance[i] / dt * state[i] + system.rhs[i];
    }
    math::conjugate_gradient(stepping, rhs, state, precond, options.solver);
    trajectory.push_back(state);
  }
  return trajectory;
}

TEST(Transient, StencilPathMatchesCsrPath) {
  Rig rig = make_rig(0.5);
  const double dt = 2e-3;
  const std::vector<math::Vector> reference = csr_reference_trajectory(rig, dt, 20);
  for (const math::PreconditionerKind kind :
       {math::PreconditionerKind::kIlu0, math::PreconditionerKind::kChebyshev}) {
    TransientOptions options;
    options.time_step = dt;
    options.solver.preconditioner = kind;
    TransientSolver solver(rig.mesh, rig.bcs, options);
    solver.set_uniform_state(25.0);

    // Different operator forms and preconditioners, same physics: the
    // trajectories agree to solver tolerance, far below any physical signal.
    for (std::size_t step = 0; step < reference.size(); ++step) {
      const math::Vector& t = solver.step().temperatures();
      ASSERT_EQ(t.size(), reference[step].size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_NEAR(t[i], reference[step][i], 1e-6)
            << math::to_string(kind) << " step " << step << " cell " << i;
      }
    }
    // system() is the stencil form of the steady operator the solver steps.
    EXPECT_EQ(solver.system().op.rows(), rig.mesh->cell_count());
  }
}

TEST(Transient, PreconditionerIsCachedAcrossStepsAndRebuiltOnNewDt) {
  Rig rig = make_rig(0.5);
  for (const math::PreconditionerKind kind :
       {math::PreconditionerKind::kIlu0, math::PreconditionerKind::kChebyshev}) {
    TransientOptions options;
    options.time_step = 2e-3;
    options.solver.preconditioner = kind;
    TransientSolver solver(rig.mesh, rig.bcs, options);
    solver.set_uniform_state(25.0);

    // Stepping reuses the construction-time preconditioner: no rebuilds.
    solver.advance(10);
    EXPECT_EQ(solver.stats().preconditioner_builds, 0u) << math::to_string(kind);

    // Changing dt changes the stepping operator, so both counters move
    // together; a same-valued set is a no-op for both.
    solver.set_time_step(4e-3);
    EXPECT_EQ(solver.stats().preconditioner_builds, 1u) << math::to_string(kind);
    EXPECT_EQ(solver.stats().reassemblies, 1u) << math::to_string(kind);
    solver.set_time_step(4e-3);
    EXPECT_EQ(solver.stats().preconditioner_builds, 1u) << math::to_string(kind);

    solver.advance(5);
    EXPECT_EQ(solver.stats().preconditioner_builds, 1u) << math::to_string(kind);
  }
}

}  // namespace
}  // namespace photherm::thermal
