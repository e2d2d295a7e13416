#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace photherm::thermal {

TransientStats operator+(const TransientStats& a, const TransientStats& b) {
  TransientStats sum;
  sum.steps = a.steps + b.steps;
  sum.total_cg_iterations = a.total_cg_iterations + b.total_cg_iterations;
  sum.max_cg_iterations = std::max(a.max_cg_iterations, b.max_cg_iterations);
  sum.reassemblies = a.reassemblies + b.reassemblies;
  sum.preconditioner_builds = a.preconditioner_builds + b.preconditioner_builds;
  return sum;
}

namespace {
StencilSystem assemble_checked(const std::shared_ptr<const mesh::RectilinearMesh>& mesh,
                               const BoundarySet& bcs) {
  PH_REQUIRE(mesh != nullptr, "TransientSolver: null mesh");
  return assemble_stencil(*mesh, bcs);
}
}  // namespace

TransientSolver::TransientSolver(std::shared_ptr<const mesh::RectilinearMesh> mesh,
                                 const BoundarySet& bcs, const TransientOptions& options)
    : mesh_(std::move(mesh)),
      options_(options),
      system_(assemble_checked(mesh_, bcs)),
      stepping_(system_.op) {
  PH_REQUIRE(options_.time_step > 0.0, "time step must be positive");
  rebuild_stepping();
  state_.assign(mesh_->cell_count(), 0.0);
  // Separate injected power from boundary wall terms so set_power
  // throttles only the heat sources, not the ambient coupling.
  power_.resize(mesh_->cell_count());
  bc_rhs_.resize(mesh_->cell_count());
  rhs_.resize(mesh_->cell_count());
  for (std::size_t i = 0; i < mesh_->cell_count(); ++i) {
    power_[i] = mesh_->power(i);
    bc_rhs_[i] = system_.rhs[i] - power_[i];
  }
  refresh_field();
}

void TransientSolver::set_uniform_state(double t_celsius) {
  state_.assign(mesh_->cell_count(), t_celsius);
  refresh_field();
}

void TransientSolver::set_state(const ThermalField& field) {
  PH_REQUIRE(field.temperatures().size() == mesh_->cell_count(),
             "set_state: field does not match the mesh");
  state_ = field.temperatures();
  refresh_field();
}

const ThermalField& TransientSolver::step() {
  update_rhs();
  if (!options_.warm_start) {
    state_.clear();  // empty -> CG starts from the zero vector
  }
  // Otherwise state_ already has the system size, so CG keeps it as the
  // initial guess (solvers.hpp warm-start contract) — the previous field.
  return solve_step();
}

const ThermalField& TransientSolver::step(const math::Vector& initial_guess) {
  PH_REQUIRE(initial_guess.size() == mesh_->cell_count(),
             "step: initial guess does not match the mesh");
  update_rhs();
  state_ = initial_guess;
  return solve_step();
}

void TransientSolver::update_rhs() {
  for (std::size_t i = 0; i < rhs_.size(); ++i) {
    rhs_[i] = capacitance_over_dt_[i] * state_[i] + bc_rhs_[i] + power_[i];
  }
}

const ThermalField& TransientSolver::solve_step() {
  last_solve_ = math::conjugate_gradient(stepping_, rhs_, state_, *precond_, options_.solver);
  stats_.steps += 1;
  stats_.total_cg_iterations += last_solve_.iterations;
  stats_.max_cg_iterations = std::max(stats_.max_cg_iterations, last_solve_.iterations);
  telemetry::count(telemetry::Counter::kTransientSteps);
  time_ += options_.time_step;
  refresh_field();
  return *field_;
}

const ThermalField& TransientSolver::advance(std::size_t n) {
  PH_REQUIRE(n >= 1, "advance requires at least one step");
  for (std::size_t i = 0; i + 1 < n; ++i) {
    step();
  }
  return step();
}

void TransientSolver::set_time_step(double dt) {
  PH_REQUIRE(dt > 0.0 && std::isfinite(dt), "time step must be positive and finite");
  if (dt == options_.time_step) {
    return;
  }
  options_.time_step = dt;
  {
    telemetry::Span span("transient.reassemble");
    rebuild_stepping();
  }
  stats_.reassemblies += 1;
  stats_.preconditioner_builds += 1;
  telemetry::count(telemetry::Counter::kTransientReassemblies);
  telemetry::count(telemetry::Counter::kTransientPreconditionerBuilds);
}

void TransientSolver::rebuild_stepping() {
  // Diagonal-only shift: copy A's diagonal, share its couplings and add
  // C/dt — no triplet sort, which is what makes adaptive-dt rebuilds
  // cheap. C/dt is kept: every step's rhs scales the state by it.
  capacitance_over_dt_ = heat_capacitance(*mesh_);
  for (double& c : capacitance_over_dt_) {
    c /= options_.time_step;
  }
  stepping_ = system_.op;
  stepping_.add_to_diagonal(capacitance_over_dt_);
  precond_ = math::make_preconditioner(options_.solver.preconditioner, stepping_,
                                       options_.solver.chebyshev);
}

void TransientSolver::set_time(double time) {
  PH_REQUIRE(time >= 0.0 && std::isfinite(time), "time must be non-negative and finite");
  time_ = time;
}

void TransientSolver::set_power(const math::Vector& power) {
  PH_REQUIRE(power.size() == mesh_->cell_count(),
             "set_power: power vector does not match the mesh");
  power_ = power;
}

void TransientSolver::refresh_field() { field_.emplace(mesh_, state_); }

}  // namespace photherm::thermal
