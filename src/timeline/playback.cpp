#include "timeline/playback.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/methodology.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace photherm::timeline {

namespace {

/// The steady settle reference must be resolvably tighter than the settle
/// tolerance: its solver-noise floor (rel_tolerance * field scale) has to
/// sit at least this factor below the tolerance, else the settle detector
/// compares against noise.
constexpr double kSettleNoiseMargin = 10.0;

/// No CG solve resolves a tighter relative tolerance than this; a
/// settle_tolerance that would require one is rejected outright.
constexpr double kMinReferenceTolerance = 1e-15;

/// Adaptive growth never takes the step past this multiple of
/// PlaybackOptions::time_step.
constexpr double kMaxGrowthFactor = 64.0;

/// Adaptive growth targets at least this per-step contraction of the
/// distance to the steady reference: the step grows whenever one step
/// moves the field by less than this fraction of the remaining distance.
/// Backward Euler is L-stable, so the resulting dt >~ tau steps stay
/// stable and the distance shrinks geometrically — settle in O(log)
/// steps instead of O(horizon / dt).
constexpr double kAdaptiveContraction = 0.5;

/// The step also grows whenever one step moves the field by less than this
/// fraction of PlaybackOptions::settle_tolerance: crawling relative to what
/// "settled" means.
constexpr double kAdaptiveFloorFraction = 0.25;

/// Step multiplier per adaptive growth. Growth is attempted at period
/// boundaries only, so the reassembly cost stays O(log) in the total
/// growth factor.
constexpr double kAdaptiveGrowth = 2.0;

/// The field history holds one full period of fields plus the current one
/// (same-phase prediction, periodic detection). Above this many doubles
/// (32 MB) it is not worth the trade: the history keeps two fields (linear
/// extrapolation) and periodic detection is disabled (logged); the bound
/// depends only on the problem, never on thread counts, so determinism is
/// preserved.
constexpr std::size_t kPeriodicBufferCap = std::size_t{1} << 22;

/// Max |a - b| over two vectors; the sizes must match (a settle or cycle
/// comparison across different meshes/grids would be meaningless).
double max_abs_delta(const math::Vector& a, const math::Vector& b) {
  PH_REQUIRE(a.size() == b.size(), "max_abs_delta: size mismatch");
  double delta = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    delta = std::max(delta, std::abs(a[i] - b[i]));
  }
  return delta;
}

}  // namespace

void PlaybackOptions::validate() const {
  PH_REQUIRE(max_periods >= 1, "playback needs at least one period");
  PH_REQUIRE(settle_tolerance > 0.0, "settle tolerance must be positive");
}

Playback::Playback(const scenario::ScenarioSpec& spec, const PlaybackOptions& options)
    : options_(options), schedule_(spec.schedule) {
  options_.validate();
  build_scene(spec);

  PowerTimeline base =
      compile_timeline(schedule_, options_.time_step, options_.max_period_error);
  constant_scale_ = constant_scale(schedule_);
  dt_ = options_.time_step;
  horizon_time_ = static_cast<double>(options_.max_periods) * base.period();

  thermal::TransientOptions transient_options;
  transient_options.time_step = dt_;
  transient_options.warm_start = options_.warm_start;
  transient_options.solver = options_.solver;
  solver_.emplace(mesh_, boundary_set_, transient_options);
  solver_->set_uniform_state(spec.design.package.t_ambient);

  trace_.scenario = spec.name;
  trace_.probe_names = probes_->names();
  trace_.period = base.period();
  trace_.final_time_step = dt_;

  solve_steady_reference(base);
  adopt_timeline(std::move(base));
}

Playback::Playback(const scenario::ScenarioSpec& spec, const PlaybackOptions& options,
                   const PlaybackCheckpoint& checkpoint)
    : options_(options), schedule_(spec.schedule) {
  options_.validate();
  PH_REQUIRE(checkpoint.scenario == spec.name,
             "checkpoint is for scenario `" + checkpoint.scenario +
                 "`, not `" + spec.name + "`");
  PH_REQUIRE(checkpoint.base_time_step == options_.time_step,
             "checkpoint was taken at a different base time step; resume with the "
             "options the playback started with");
  build_scene(spec);

  const std::size_t n = mesh_->cell_count();
  PH_REQUIRE(checkpoint.state.size() == n,
             "checkpoint field does not match the scenario's mesh");
  PH_REQUIRE(checkpoint.trace.probe_names == probes_->names(),
             "checkpoint probe set does not match the scenario");

  // The base grid fixes the horizon and the duty of the settle reference;
  // both must reproduce the original construction exactly.
  PowerTimeline base =
      compile_timeline(schedule_, options_.time_step, options_.max_period_error);
  constant_scale_ = constant_scale(schedule_);
  PH_REQUIRE(checkpoint.trace.period == base.period(),
             "checkpoint period does not match the compiled schedule");
  horizon_time_ = static_cast<double>(options_.max_periods) * base.period();
  dt_ = checkpoint.current_time_step;
  PH_REQUIRE(dt_ > 0.0, "checkpoint carries a non-positive time step");

  thermal::TransientOptions transient_options;
  transient_options.time_step = dt_;
  transient_options.warm_start = options_.warm_start;
  transient_options.solver = options_.solver;
  solver_.emplace(mesh_, boundary_set_, transient_options);
  solver_->set_state(thermal::ThermalField(mesh_, checkpoint.state));
  solver_->set_time(checkpoint.time);

  trace_ = checkpoint.trace;
  stats_offset_ = checkpoint.trace.stats;
  telemetry::instant(telemetry::Counter::kCheckpointResumes);
  solve_steady_reference(base);

  // Recreate the grid in effect at the pause: the base grid, or the one
  // adaptive growth had reached (a constant-scale schedule regrows to a
  // single one-step segment; a multi-scale one re-quantizes the schedule).
  if (dt_ == options_.time_step) {
    adopt_timeline(std::move(base));
  } else if (constant_scale_) {
    PowerTimeline grown;
    grown.time_step = dt_;
    grown.segments.push_back({base.segments.front().scale, 1, dt_});
    adopt_timeline(std::move(grown));
  } else {
    PowerTimeline grown =
        compile_timeline(schedule_, dt_, std::numeric_limits<double>::infinity());
    PH_REQUIRE(grown.relative_period_error() <= options_.max_period_error,
               "checkpoint time step violates the period-error bound");
    adopt_timeline(std::move(grown));
  }

  // adopt_timeline resets the detectors; restore the paused detector state
  // on top of the freshly derived grid.
  PH_REQUIRE(checkpoint.step_in_period < timeline_.steps_per_period(),
             "checkpoint step offset is outside the period");
  seek(checkpoint.step_in_period);
  in_tolerance_run_ = checkpoint.in_tolerance_run;
  last_step_delta_ = checkpoint.last_step_delta;
  trace_.final_time_step = dt_;
  if (periodic_enabled_) {
    cycle_count_ = checkpoint.cycle_count;
    cycle_hold_ = checkpoint.cycle_hold;
    cycle_max_delta_ = checkpoint.cycle_max_delta;
  }
  restore_history(checkpoint);
}

void Playback::restore_history(const PlaybackCheckpoint& checkpoint) {
  PH_REQUIRE(checkpoint.history.empty() || checkpoint.cycle_buffer.empty(),
             "checkpoint carries both a history and a legacy cycle buffer");
  // The fields before T_n, oldest first.
  std::vector<const math::Vector*> before;
  if (checkpoint.cycle_buffer.empty()) {
    PH_REQUIRE(checkpoint.history.size() < history_.capacity(),
               "checkpoint history is longer than one period");
    // The history and the periodic counter both restart with the grid.
    PH_REQUIRE(!periodic_enabled_ ||
                   checkpoint.history.size() == std::min(cycle_count_, history_.capacity() - 1),
               "checkpoint history does not match its step counter");
    for (const math::Vector& field : checkpoint.history) {
      before.push_back(&field);
    }
  } else if (periodic_enabled_) {
    // Written before the history existed: slot c % spp holds the field of
    // the c-th counted step, and the newest slot is T_n itself.
    const std::size_t spp = timeline_.steps_per_period();
    const std::size_t filled = std::min(cycle_count_, spp);
    PH_REQUIRE(checkpoint.cycle_buffer.size() == filled,
               "checkpoint cycle buffer does not match its step counter");
    for (std::size_t j = 0; j + 1 < filled; ++j) {
      before.push_back(&checkpoint.cycle_buffer[(cycle_count_ - filled + j) % spp]);
    }
  }
  history_.reset(history_.capacity());
  for (const math::Vector* field : before) {
    PH_REQUIRE(field->size() == checkpoint.state.size(),
               "checkpoint history does not match the mesh");
    history_.push(*field);
  }
  history_.push(checkpoint.state);
}

void Playback::build_scene(const scenario::ScenarioSpec& spec) {
  // Validate + build the scene exactly as the steady-state coarse pass does.
  core::ThermalAwareDesigner designer(spec.design);
  const soc::SccSystem system = designer.build_system();
  boundary_set_ = designer.boundary_conditions();
  const mesh::MeshOptions mesh_options = designer.global_mesh_options();
  mesh_ = std::make_shared<const mesh::RectilinearMesh>(
      mesh::RectilinearMesh::build(system.scene, mesh_options));

  // Split the injected power into the schedule-modulated part (the tile heat
  // sources fed by chip_power) and the constant part (ONI devices). A
  // chip_power = 0 variant of the same design produces the identical block
  // list and therefore the identical grid; the per-cell difference is
  // exactly the tile contribution.
  core::OnocDesignSpec idle_design = spec.design;
  idle_design.chip_power = 0.0;
  const core::ThermalAwareDesigner idle_designer(idle_design);
  const mesh::RectilinearMesh idle_mesh =
      mesh::RectilinearMesh::build(idle_designer.build_system().scene, mesh_options);
  const std::size_t n = mesh_->cell_count();
  PH_REQUIRE(idle_mesh.cell_count() == n,
             "chip_power = 0 variant meshed differently; cannot split the power");
  base_power_.resize(n);
  modulated_power_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    base_power_[i] = idle_mesh.power(i);
    modulated_power_[i] = mesh_->power(i) - idle_mesh.power(i);
  }

  // Probe geometry is fixed for the whole playback; bind it to the mesh
  // once so per-step sampling is a few weighted sums, not a mesh search.
  probes_.emplace(ProbeSet::standard(system), *mesh_);
}

void Playback::solve_steady_reference(const PowerTimeline& base_timeline) {
  telemetry::Span span("playback.steady_reference", trace_.scenario.c_str());
  // Steady reference at the timeline's duty: the settle detector's target.
  // Reuses the solver's own assembly (same mesh, so the comparison is
  // cell-for-cell). Uses the timeline's (quantized) average scale, not the
  // analytic duty_scale(), so a quantized schedule settles against the
  // power it actually plays.
  const double duty = base_timeline.average_scale();
  const std::size_t n = mesh_->cell_count();
  const thermal::StencilSystem& assembled = solver_->system();
  math::Vector rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    rhs[i] = assembled.rhs[i] - mesh_->power(i) + base_power_[i] + duty * modulated_power_[i];
  }
  math::SolverOptions reference_options = options_.solver;
  // One preconditioner serves both reference solves: the matrix does not
  // change between the first pass and the tightened re-solve, so rebuilding
  // it there was pure waste.
  const auto reference_precond = math::make_preconditioner(
      reference_options.preconditioner, assembled.op, reference_options.chebyshev);
  math::conjugate_gradient(assembled.op, rhs, steady_reference_, *reference_precond,
                           reference_options);

  // Settle/CG tolerance guard: the reference's noise floor — its relative
  // tolerance times the field scale — must sit well below the settle
  // tolerance, else the detector latches on solver noise. Tighten and
  // re-solve (warm-started from the first pass) when it does not; refuse
  // outright when no solve could resolve the requested tolerance.
  double scale = 1.0;
  for (double t : steady_reference_) {
    scale = std::max(scale, std::abs(t));
  }
  const double noise = reference_options.rel_tolerance * scale;
  if (options_.settle_tolerance < kSettleNoiseMargin * noise) {
    const double tightened = options_.settle_tolerance / (kSettleNoiseMargin * scale);
    PH_REQUIRE(tightened >= kMinReferenceTolerance,
               "settle_tolerance is below what any steady reference solve can resolve; "
               "loosen it");
    PH_LOG_WARN << "timeline `" << trace_.scenario << "`: settle_tolerance "
                << options_.settle_tolerance << " degC is within the steady reference's "
                << "solver noise; tightening the reference solve from rel_tolerance "
                << reference_options.rel_tolerance << " to " << tightened;
    reference_options.rel_tolerance = tightened;
    math::conjugate_gradient(assembled.op, rhs, steady_reference_, *reference_precond,
                             reference_options);
  }
  trace_.reference_tolerance = reference_options.rel_tolerance;
}

void Playback::adopt_timeline(PowerTimeline timeline) {
  timeline_ = std::move(timeline);
  const std::size_t spp = timeline_.steps_per_period();
  PH_REQUIRE(spp >= 1, "timeline has no steps");

  // Precompute one power vector per segment: phase changes then cost a
  // vector swap in the solver's rhs, never a matrix reassembly.
  const std::size_t n = mesh_->cell_count();
  segment_power_.clear();
  segment_power_.reserve(timeline_.segments.size());
  for (const TimelineSegment& segment : timeline_.segments) {
    math::Vector power(n);
    for (std::size_t i = 0; i < n; ++i) {
      power[i] = base_power_[i] + segment.scale * modulated_power_[i];
    }
    segment_power_.push_back(std::move(power));
  }
  current_segment_ = static_cast<std::size_t>(-1);  // force set_power next step

  // A new grid resets the detectors and the field history: the settle
  // hold, the cycle-over-cycle comparison and the same-phase increment are
  // all defined per period of one grid.
  seek(0);
  in_tolerance_run_ = 0;
  cycle_count_ = 0;
  cycle_hold_ = 0;
  cycle_max_delta_ = 0.0;

  // The grid derives from the schedule, so the oscillation gate is exactly
  // the constant-scale predicate both ctors already evaluated. A constant
  // schedule's compiled period is arbitrary, so its history looks back one
  // step.
  const bool multi_scale = !constant_scale_;
  const bool fits = (spp + 1) * n <= kPeriodicBufferCap;
  const std::size_t period = multi_scale && fits ? spp : 1;  // P
  periodic_enabled_ = multi_scale && spp >= 2 && fits;
  if (multi_scale && !fits) {
    PH_LOG_DEBUG << "timeline `" << trace_.scenario << "`: periodic-steady detection and "
                 << "same-phase prediction disabled; one period of fields (" << spp + 1
                 << " x " << n << " cells) exceeds the buffer cap";
  }
  history_.reset(period + 1);
  history_.push(solver_->state().temperatures());
}

void Playback::seek(std::size_t step_in_period) {
  step_in_period_ = step_in_period;
  segment_ = 0;
  step_in_segment_ = step_in_period;
  while (step_in_segment_ >= timeline_.segments[segment_].steps) {
    step_in_segment_ -= timeline_.segments[segment_].steps;
    segment_ += 1;
  }
}

void Playback::maybe_grow_dt() {
  if (!options_.adaptive || trace_.step_count() == 0 || finished_) {
    return;
  }
  // Crawling = the last step moved the field by less than the floor (an
  // absolute rate that matters near settle) or by less than a fraction of
  // the distance still to cover (which keeps the contraction geometric
  // while the field is far away).
  const double threshold = std::max(kAdaptiveFloorFraction * options_.settle_tolerance,
                                    kAdaptiveContraction * trace_.final_delta);
  if (last_step_delta_ > threshold) {
    return;
  }
  const double next = std::min(dt_ * kAdaptiveGrowth, kMaxGrowthFactor * options_.time_step);
  if (!(next > dt_)) {
    return;
  }
  PowerTimeline grown;
  if (constant_scale_) {
    // No period constraint: the power never changes, so the grid is free.
    grown.time_step = next;
    grown.segments.push_back({timeline_.segments.front().scale, 1, next});
  } else {
    // Re-quantize the remaining (periodic) schedule on the coarser grid;
    // stay on the current grid when the schedule no longer fits it.
    grown = compile_timeline(schedule_, next, std::numeric_limits<double>::infinity());
    if (grown.relative_period_error() > options_.max_period_error) {
      return;
    }
  }
  PH_LOG_DEBUG << "timeline `" << trace_.scenario << "`: growing dt " << dt_ << " -> "
               << next << " s at t = " << solver_->time() << " s (step delta "
               << last_step_delta_ << " degC)";
  dt_ = next;
  solver_->set_time_step(dt_);
  adopt_timeline(std::move(grown));
  trace_.dt_growths += 1;
  telemetry::count(telemetry::Counter::kPlaybackDtGrowths);
  trace_.final_time_step = dt_;
}

void Playback::update_periodic(const math::Vector& temperatures) {
  if (!periodic_enabled_) {
    return;
  }
  const std::size_t spp = timeline_.steps_per_period();
  if (cycle_count_ >= spp) {
    // The history still ends at T_n: one period before the new field is
    // spp - 1 steps before its newest entry.
    cycle_max_delta_ =
        std::max(cycle_max_delta_, max_abs_delta(temperatures, history_.back(spp - 1)));
  }
  cycle_count_ += 1;
  if (cycle_count_ % spp != 0 || cycle_count_ < 2 * spp) {
    return;
  }
  // A full period has been compared against its predecessor.
  trace_.cycle_delta = cycle_max_delta_;
  cycle_hold_ = cycle_max_delta_ <= options_.settle_tolerance ? cycle_hold_ + 1 : 0;
  cycle_max_delta_ = 0.0;
  if (!trace_.periodic_steady && cycle_hold_ >= kPeriodicHoldPeriods) {
    trace_.periodic_steady = true;
    trace_.periodic_steady_step = trace_.step_count() - kPeriodicHoldPeriods * spp;
    trace_.periodic_steady_time = trace_.times[trace_.periodic_steady_step];
  }
}

void Playback::step_once() {
  const std::size_t spp = timeline_.steps_per_period();
  if (segment_ != current_segment_) {
    solver_->set_power(segment_power_[segment_]);
    current_segment_ = segment_;
  }
  // Same-phase prediction once the history holds T_{n-P} ... T_n.
  const bool predict = options_.warm_start && history_.size() == history_.capacity();
  if (predict) {
    const std::size_t p = history_.capacity() - 1;
    const math::Vector& t_n = history_.back(0);
    const math::Vector& t_a = history_.back(p - 1);  // T_{n+1-P}
    const math::Vector& t_b = history_.back(p);      // T_{n-P}
    guess_.resize(t_n.size());
    for (std::size_t i = 0; i < t_n.size(); ++i) {
      guess_[i] = t_n[i] + (t_a[i] - t_b[i]);
    }
  }
  const thermal::ThermalField& field = predict ? solver_->step(guess_) : solver_->step();
  telemetry::count(telemetry::Counter::kPlaybackSteps);
  trace_.times.push_back(solver_->time());
  trace_.power_scale.push_back(timeline_.segments[segment_].scale);
  trace_.cg_iterations.push_back(solver_->last_solve().iterations);
  trace_.samples.push_back(probes_->sample(field));
  trace_.stats = stats_offset_ + solver_->stats();

  const double delta = max_abs_delta(field.temperatures(), steady_reference_);
  trace_.final_delta = delta;
  // Settled = the criterion holds for one full period, not just one
  // sample: an oscillating schedule whose field merely crosses the
  // steady reference must not latch a false settle. For constant
  // schedules (one-step period) this degenerates to the plain test.
  in_tolerance_run_ = delta <= options_.settle_tolerance ? in_tolerance_run_ + 1 : 0;
  if (!trace_.settled && in_tolerance_run_ >= spp) {
    trace_.settled = true;
    trace_.settle_step = trace_.times.size() - in_tolerance_run_;  // run entry
    trace_.settle_time = trace_.times[trace_.settle_step];
  }
  if (options_.adaptive) {
    last_step_delta_ = max_abs_delta(field.temperatures(), history_.back(0));
  }
  update_periodic(field.temperatures());
  history_.push(field.temperatures());

  // Soak heartbeat: a stable key=value stderr line every N steps (see
  // PlaybackOptions::progress_every). Logging only — never the trace, never
  // the physics.
  if (options_.progress_every != 0 && trace_.step_count() % options_.progress_every == 0) {
    PH_LOG_INFO << "event=playback_progress scenario=" << trace_.scenario
                << " step=" << trace_.step_count() << " time=" << solver_->time()
                << " dt=" << dt_ << " max_delta=" << trace_.final_delta;
  }

  step_in_period_ += 1;
  step_in_segment_ += 1;
  if (step_in_segment_ == timeline_.segments[segment_].steps) {
    step_in_segment_ = 0;
    segment_ += 1;
  }
  if (step_in_period_ == spp) {
    seek(0);
  }
  if ((trace_.settled || trace_.periodic_steady) && options_.stop_on_settle) {
    finished_ = true;
  }
  // Horizon in simulated time, not steps: max_periods periods of the
  // initial grid, whatever grid the adaptive scheme reached. The half-step
  // slack absorbs the accumulated-sum vs product rounding of the clock.
  if (solver_->time() >= horizon_time_ - 0.5 * dt_) {
    finished_ = true;
  }
}

std::size_t Playback::run(std::size_t max_steps) {
  std::size_t taken = 0;
  while (!finished_ && taken < max_steps) {
    // Growth points: period boundaries, where re-quantizing the remaining
    // schedule keeps phase alignment. A constant-scale schedule has no
    // physical period, so it may grow before any step.
    if (step_in_period_ == 0 || constant_scale_) {
      maybe_grow_dt();
    }
    step_once();
    taken += 1;
  }
  return taken;
}

PlaybackCheckpoint Playback::checkpoint() const {
  PlaybackCheckpoint ckpt;
  ckpt.scenario = trace_.scenario;
  ckpt.base_time_step = options_.time_step;
  ckpt.current_time_step = dt_;
  ckpt.time = solver_->time();
  ckpt.step_in_period = step_in_period_;
  ckpt.last_step_delta = last_step_delta_;
  ckpt.in_tolerance_run = in_tolerance_run_;
  ckpt.cycle_count = cycle_count_;
  ckpt.cycle_hold = cycle_hold_;
  ckpt.cycle_max_delta = cycle_max_delta_;
  ckpt.state = solver_->state().temperatures();
  for (std::size_t k = history_.size(); k-- > 1;) {
    ckpt.history.push_back(history_.back(k));
  }
  ckpt.trace = trace_;
  return ckpt;
}

void Playback::FieldRing::reset(std::size_t capacity) {
  PH_REQUIRE(capacity >= 1, "field ring needs at least one slot");
  slots_.resize(capacity);
  oldest_ = 0;
  size_ = 0;
}

void Playback::FieldRing::push(const math::Vector& field) {
  const std::size_t slot = (oldest_ + size_) % slots_.size();
  if (size_ == slots_.size()) {
    oldest_ = (oldest_ + 1) % slots_.size();
  } else {
    size_ += 1;
  }
  slots_[slot] = field;  // reuses the slot's storage
}

const math::Vector& Playback::FieldRing::back(std::size_t k) const {
  PH_REQUIRE(k < size_, "field ring holds fewer fields");
  return slots_[(oldest_ + size_ - 1 - k) % slots_.size()];
}

TimelineTrace play_scenario(const scenario::ScenarioSpec& spec,
                            const PlaybackOptions& options) {
  Playback playback(spec, options);
  playback.run();
  TimelineTrace trace = playback.take_trace();
  PH_LOG_DEBUG << "timeline `" << trace.scenario << "`: " << trace.step_count() << " steps, "
               << trace.stats.total_cg_iterations << " CG iterations, "
               << (trace.settled ? "settled"
                                 : trace.periodic_steady ? "periodic steady" : "not settled");
  return trace;
}

}  // namespace photherm::timeline
