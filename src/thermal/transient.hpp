/// \file transient.hpp
/// \brief Transient conduction by implicit (backward) Euler. IcTherm's
/// original publication [23] is a transient simulator; the paper only needs
/// steady state, but the transient engine is provided for studying heating
/// latency of the MR calibration loop (Sec. II discussion). The timeline
/// engine (timeline/playback.hpp) drives it through scenario schedules.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "thermal/fvm.hpp"

namespace photherm::thermal {

struct TransientOptions {
  double time_step = 1e-3;  ///< [s]
  /// Per-step CG knobs. The stepping operator C/dt + A is always the
  /// matrix-free stencil, on which every preconditioner kind builds.
  math::SolverOptions solver;
  /// Seed each step's CG solve with the previous state. The stepping update
  /// (C/dt + A) T_{n+1} = (C/dt) T_n + q moves the field a little per step,
  /// so the previous state is an excellent initial guess and cuts the
  /// per-step iteration count hard (see bench_timeline_playback). Off
  /// restarts every solve from the zero vector — only useful to measure the
  /// warm-start savings; results agree within the solver tolerance but are
  /// not bit-identical.
  bool warm_start = true;
};

/// Cumulative per-solver stepping statistics (for benches and the timeline
/// trace): how many steps ran and what they cost in CG iterations.
struct TransientStats {
  std::size_t steps = 0;
  std::size_t total_cg_iterations = 0;
  std::size_t max_cg_iterations = 0;  ///< worst single step
  /// Stepping-matrix rebuilds triggered by set_time_step (adaptive dt).
  /// The construction-time assembly is not counted.
  std::size_t reassemblies = 0;
  /// Preconditioner rebuilds triggered by set_time_step. The solver caches
  /// its preconditioner with the stepping operator (the construction-time
  /// build is not counted, mirroring `reassemblies`), so this stays equal
  /// to `reassemblies` instead of growing by one per step as the old
  /// build-inside-CG path did.
  std::size_t preconditioner_builds = 0;
};

/// Element-wise accumulation (max for the worst-step figure). The timeline
/// checkpoint machinery folds the cost of a resumed playback's earlier
/// session into the fresh solver's counters with this.
TransientStats operator+(const TransientStats& a, const TransientStats& b);

/// Steps T(t) forward with backward Euler:
///   (C/dt + A) T_{n+1} = (C/dt) T_n + q.
/// The operator (C/dt + A) is SPD, so CG applies. Power can be updated
/// between steps per cell via set_power; it only touches the right-hand
/// side, so no reassembly or re-preconditioning happens between phases.
class TransientSolver {
 public:
  TransientSolver(std::shared_ptr<const mesh::RectilinearMesh> mesh, const BoundarySet& bcs,
                  const TransientOptions& options = {});

  /// Initialise the state to a uniform temperature.
  void set_uniform_state(double t_celsius);

  /// Initialise from an existing field (must share the mesh dimensions).
  void set_state(const ThermalField& field);

  /// Advance one time step; returns the new field (state is kept
  /// internally as well). CG starts from the previous state, or from zero
  /// when TransientOptions::warm_start is off.
  const ThermalField& step();

  /// Advance one time step with CG started from `initial_guess` instead,
  /// whatever warm_start says; throws Error unless its size matches the
  /// mesh. The stopping rule is step()'s, so the new state meets the same
  /// residual bound; a guess equal to the current state reproduces a
  /// warm-started step() bit for bit. The timeline engine passes its
  /// same-phase prediction here (timeline/playback.hpp).
  const ThermalField& step(const math::Vector& initial_guess);

  /// Advance `n` steps; returns the final field.
  const ThermalField& advance(std::size_t n);

  /// Replace the injected power per cell [W] (size must match the mesh).
  /// Rhs-only, so phase changes cost nothing beyond the copy — the timeline
  /// engine swaps power vectors between schedule phases without touching
  /// the stepping matrix.
  void set_power(const math::Vector& power);

  /// Injected power per cell currently applied.
  const math::Vector& power() const { return power_; }

  /// Change the step size; takes effect on the next step. Rebuilds the
  /// stepping operator C/dt + A (A's diagonal plus a shift, sharing A's
  /// couplings) and the preconditioner cached with it — the only dt-dependent state, so
  /// adaptive stepping calls this rarely (geometric growth) and never per
  /// step. Counted in stats().reassemblies. The state, time, power and rhs
  /// split are untouched; a no-op when `dt` already is the current step.
  void set_time_step(double dt);
  double time_step() const { return options_.time_step; }

  /// Restore the simulation clock (checkpoint resume): the next step ends
  /// at `time + time_step()`. Must be non-negative and finite.
  void set_time(double time);

  double time() const { return time_; }
  const ThermalField& state() const { return *field_; }

  /// CG result of the most recent step() (default-constructed before the
  /// first step).
  const math::SolverResult& last_solve() const { return last_solve_; }

  /// Cumulative stepping statistics since construction.
  const TransientStats& stats() const { return stats_; }

  /// The assembled steady-state system (stencil operator A and rhs) this
  /// solver steps. Read-only; the timeline engine reuses it for the steady
  /// settle reference instead of assembling the same scene twice.
  const StencilSystem& system() const { return system_; }

 private:
  void refresh_field();
  /// Rebuild C/dt, C/dt + A and the preconditioner cached with it for the
  /// current time step.
  void rebuild_stepping();
  /// Fill rhs_ with (C/dt) T_n + q for the current state.
  void update_rhs();
  /// Solve for the new state from the guess in state_ (empty = zero) and
  /// advance the clock.
  const ThermalField& solve_step();

  std::shared_ptr<const mesh::RectilinearMesh> mesh_;
  TransientOptions options_;
  StencilSystem system_;            ///< steady-state operator A and rhs q
  math::StencilOperator7 stepping_;  ///< C/dt + A, sharing A's couplings
  /// Cached with the stepping operator and rebuilt only by set_time_step —
  /// never per solve (see TransientStats::preconditioner_builds).
  std::unique_ptr<math::Preconditioner> precond_;
  math::Vector power_;             ///< injected power per cell [W]
  math::Vector bc_rhs_;            ///< boundary wall terms of the rhs
  math::Vector capacitance_over_dt_;  ///< C/dt, refreshed with the stepping operator
  math::Vector rhs_;               ///< per-step rhs, reused across steps
  math::Vector state_;
  std::optional<ThermalField> field_;  ///< mirrors state_ (state() is a cheap ref)
  math::SolverResult last_solve_;
  TransientStats stats_;
  double time_ = 0.0;
};

}  // namespace photherm::thermal
