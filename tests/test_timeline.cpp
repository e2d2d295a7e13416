/// Timeline engine contracts: schedule compilation, standard probes,
/// transient <-> steady-state equivalence (a constant-schedule playback must
/// settle onto the steady solution), and the TimelineRunner determinism
/// guarantee (traces bit-identical at 1 and 4 threads, the
/// test_parallel_sweep pattern).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/methodology.hpp"
#include "scenario/registry.hpp"
#include "support/fixtures.hpp"
#include "timeline/checkpoint.hpp"
#include "timeline/playback.hpp"
#include "timeline/probe.hpp"
#include "timeline/runner.hpp"
#include "timeline/timeline.hpp"
#include "util/error.hpp"

namespace photherm {
namespace {

using scenario::ScenarioSpec;

/// Small, coarse scenario for stepping tests: the shared coarse spec on the
/// 4-ONI ring, ~1k global cells.
ScenarioSpec coarse_scenario() {
  ScenarioSpec s;
  s.name = "coarse";
  s.design = fixtures::coarse_onoc_spec();
  return s;
}

template <typename T>
void expect_bit_identical(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0) << what;
}

/// Every per-step number and detector verdict of two traces, bit for bit.
void expect_same_trace(const timeline::TimelineTrace& a, const timeline::TimelineTrace& b) {
  expect_bit_identical(a.times, b.times, "times");
  expect_bit_identical(a.power_scale, b.power_scale, "power_scale");
  expect_bit_identical(a.cg_iterations, b.cg_iterations, "cg_iterations");
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t k = 0; k < a.samples.size(); ++k) {
    expect_bit_identical(a.samples[k], b.samples[k], "samples");
  }
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_EQ(a.settle_step, b.settle_step);
  EXPECT_EQ(a.final_delta, b.final_delta);
  EXPECT_EQ(a.periodic_steady, b.periodic_steady);
  EXPECT_EQ(a.cycle_delta, b.cycle_delta);
  EXPECT_EQ(a.dt_growths, b.dt_growths);
  EXPECT_EQ(a.final_time_step, b.final_time_step);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.total_cg_iterations, b.stats.total_cg_iterations);
  EXPECT_EQ(a.stats.max_cg_iterations, b.stats.max_cg_iterations);
}

/// Pause `playback` here, round-trip its checkpoint through the text form
/// (the resumed process never sees the in-memory state) and play the rest
/// in a fresh Playback.
timeline::TimelineTrace resume_to_the_end(const timeline::Playback& playback,
                                          const ScenarioSpec& spec,
                                          const timeline::PlaybackOptions& options) {
  const auto parsed =
      timeline::parse_checkpoints(timeline::serialize_checkpoints({playback.checkpoint()}));
  timeline::Playback resumed(spec, options, parsed.at(0));
  resumed.run();
  return resumed.take_trace();
}

TEST(Timeline, EmptyScheduleCompilesToAlwaysOn) {
  const timeline::PowerTimeline t = timeline::compile_timeline({}, 0.5);
  ASSERT_EQ(t.segments.size(), 1u);
  EXPECT_EQ(t.segments[0].scale, 1.0);
  EXPECT_EQ(t.segments[0].steps, 1u);
  EXPECT_EQ(t.steps_per_period(), 1u);
  EXPECT_EQ(t.period(), 0.5);
  EXPECT_EQ(t.average_scale(), 1.0);
}

TEST(Timeline, ScheduleQuantizesOntoTheStepGrid) {
  const std::vector<power::ActivityPhase> schedule{{0.25, 1.0}, {0.3, 0.5}, {0.01, 0.0}};
  const timeline::PowerTimeline t = timeline::compile_timeline(schedule, 0.05);
  ASSERT_EQ(t.segments.size(), 3u);
  EXPECT_EQ(t.segments[0].steps, 5u);
  EXPECT_EQ(t.segments[1].steps, 6u);
  EXPECT_EQ(t.segments[2].steps, 1u);  // shorter than a step, still played
  EXPECT_EQ(t.steps_per_period(), 12u);
  EXPECT_DOUBLE_EQ(t.period(), 0.6);
  // Scale lookup wraps periodically.
  EXPECT_EQ(t.scale_at_step(0), 1.0);
  EXPECT_EQ(t.scale_at_step(5), 0.5);
  EXPECT_EQ(t.scale_at_step(11), 0.0);
  EXPECT_EQ(t.scale_at_step(12), 1.0);
  // Duty of the *quantized* timeline.
  EXPECT_DOUBLE_EQ(t.average_scale(), (5.0 * 1.0 + 6.0 * 0.5) / 12.0);
}

TEST(Timeline, CompileRejectsBadInput) {
  EXPECT_THROW(timeline::compile_timeline({}, 0.0), Error);
  EXPECT_THROW(timeline::compile_timeline({{-1.0, 0.5}}, 0.1), Error);
  EXPECT_THROW(timeline::compile_timeline({{1.0, -0.5}}, 0.1), Error);
}

TEST(Timeline, StandardProbesCoverChipTilesAndOnis) {
  const core::ThermalAwareDesigner designer(coarse_scenario().design);
  const soc::SccSystem system = designer.build_system();
  const timeline::ProbeSet probes = timeline::ProbeSet::standard(system);

  const std::vector<std::string> names = probes.names();
  ASSERT_EQ(names.size(), 3u + system.onis.size());
  EXPECT_EQ(names[0], "chip_avg");
  EXPECT_EQ(names[1], "tile_hottest");
  EXPECT_EQ(names[2], "die_gradient");
  EXPECT_EQ(names[3], "oni0_mr");

  // Sampling a solved field is ordered, finite and physically sensible:
  // the hottest tile is at least the chip average, the gradient positive.
  const core::CoarseGlobalSolve global = designer.solve_global();
  const std::vector<double> samples = probes.sample(global.field);
  ASSERT_EQ(samples.size(), names.size());
  EXPECT_GE(samples[1], samples[0]);
  EXPECT_GT(samples[2], 0.0);
  for (double s : samples) {
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST(Timeline, ConstantScheduleSettlesToTheSteadyStateField) {
  ScenarioSpec s = coarse_scenario();
  s.schedule = {{1.0, 1.0}};  // constant full power

  timeline::PlaybackOptions options;
  options.time_step = 2.0;  // L-stable backward Euler: big steps are fine
  options.max_periods = 2000;
  options.settle_tolerance = 0.05;
  options.stop_on_settle = true;
  const timeline::TimelineTrace trace = timeline::play_scenario(s, options);

  EXPECT_TRUE(trace.settled);
  EXPECT_GT(trace.settle_time, 0.0);
  EXPECT_LE(trace.final_delta, options.settle_tolerance);
  EXPECT_EQ(trace.settle_step + 1, trace.step_count());  // stopped at settle

  // Independent cross-check: the last chip-average sample must match the
  // steady-state pipeline's own coarse solve of the same scene.
  const core::ThermalAwareDesigner designer(s.design);
  const core::CoarseGlobalSolve global = designer.solve_global();
  geometry::Box3 heat_layer = global.system.scene.bounding_box();
  heat_layer.lo.z = global.system.z.heat_lo;
  heat_layer.hi.z = global.system.z.heat_hi;
  const double steady_chip_avg = global.field.average_in(heat_layer);
  EXPECT_NEAR(trace.samples.back()[0], steady_chip_avg, options.settle_tolerance);
}

TEST(Timeline, BurstPlaybackTracksTheDutyAveragedSteadyState) {
  // A 50% square-wave burst must converge (up to its ripple) onto the same
  // operating point the steady-state pipeline computes from the duty fold
  // (ScenarioSpec::effective_design halves the chip power).
  ScenarioSpec s = coarse_scenario();
  s.schedule = {{0.5, 1.0}, {0.5, 0.0}};

  timeline::PlaybackOptions options;
  options.time_step = 0.5;
  options.max_periods = 250;  // 250 s — several package time constants
  options.stop_on_settle = false;
  const timeline::TimelineTrace trace = timeline::play_scenario(s, options);
  ASSERT_EQ(trace.step_count(), 500u);

  const core::ThermalAwareDesigner effective(s.effective_design());
  const core::CoarseGlobalSolve global = effective.solve_global();
  geometry::Box3 heat_layer = global.system.scene.bounding_box();
  heat_layer.lo.z = global.system.z.heat_lo;
  heat_layer.hi.z = global.system.z.heat_hi;
  const double duty_steady_chip_avg = global.field.average_in(heat_layer);

  // Cycle-average the last period (one on-step, one off-step) to cancel the
  // ripple, then compare against the duty-averaged steady chip average.
  const std::size_t last = trace.step_count() - 1;
  const double cycle_avg = (trace.samples[last][0] + trace.samples[last - 1][0]) / 2.0;
  EXPECT_NEAR(cycle_avg, duty_steady_chip_avg, 0.5);
  // The ripple never settles below a tight tolerance — the detector must
  // not report a false settle against the duty-averaged field.
  EXPECT_GT(trace.final_delta, 0.0);
}

TEST(Timeline, RunnerTracesAreBitIdenticalAcrossThreadCounts) {
  std::vector<ScenarioSpec> suite;
  for (double scale : {1.0, 0.5, 0.25}) {
    ScenarioSpec s = coarse_scenario();
    s.name = "step_" + std::to_string(scale);
    s.schedule = {{0.4, scale}, {0.2, 0.1}};
    suite.push_back(std::move(s));
  }

  const auto at = [&](std::size_t threads) {
    fixtures::ScopedConcurrency budget(threads);
    timeline::TimelineBatchOptions options;
    options.playback.time_step = 0.2;
    options.playback.max_periods = 3;
    options.playback.stop_on_settle = false;  // fixed horizon: equal shapes
    return timeline::TimelineRunner(options).run(suite);
  };
  const timeline::TimelineBatchResult serial = at(1);
  const timeline::TimelineBatchResult threaded = at(4);

  ASSERT_EQ(serial.traces.size(), suite.size());
  EXPECT_EQ(serial.stats.total_steps, threaded.stats.total_steps);
  EXPECT_EQ(serial.stats.total_cg_iterations, threaded.stats.total_cg_iterations);
  for (std::size_t i = 0; i < serial.traces.size(); ++i) {
    const timeline::TimelineTrace& a = serial.traces[i];
    const timeline::TimelineTrace& b = threaded.traces[i];
    EXPECT_EQ(a.scenario, suite[i].name);  // index-ordered collection
    EXPECT_EQ(a.scenario, b.scenario);
    expect_bit_identical(a.times, b.times, "times");
    expect_bit_identical(a.power_scale, b.power_scale, "power_scale");
    expect_bit_identical(a.cg_iterations, b.cg_iterations, "cg_iterations");
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t k = 0; k < a.samples.size(); ++k) {
      expect_bit_identical(a.samples[k], b.samples[k], "samples");
    }
    EXPECT_EQ(a.settled, b.settled);
    EXPECT_EQ(a.settle_time, b.settle_time);
    EXPECT_EQ(a.final_delta, b.final_delta);
  }

  // The rendered CSV payload is therefore bit-identical too.
  EXPECT_EQ(timeline::timeline_table(serial).to_csv(),
            timeline::timeline_table(threaded).to_csv());
}

TEST(Timeline, WarmStartCutsCgIterations) {
  ScenarioSpec s = coarse_scenario();
  s.schedule = {{1.0, 1.0}};

  timeline::PlaybackOptions options;
  options.time_step = 1.0;
  options.max_periods = 30;
  options.stop_on_settle = false;

  timeline::PlaybackOptions cold = options;
  cold.warm_start = false;
  const timeline::TimelineTrace warm_trace = timeline::play_scenario(s, options);
  const timeline::TimelineTrace cold_trace = timeline::play_scenario(s, cold);

  ASSERT_EQ(warm_trace.step_count(), cold_trace.step_count());
  EXPECT_LT(warm_trace.stats.total_cg_iterations, cold_trace.stats.total_cg_iterations);
  // Same physics either way: the final fields agree to solver tolerance.
  for (std::size_t p = 0; p < warm_trace.probe_names.size(); ++p) {
    EXPECT_NEAR(warm_trace.samples.back()[p], cold_trace.samples.back()[p], 1e-6);
  }

  // On a burst the previous field is a poor guess across every phase edge;
  // the increment one period back is not. 20 periods of a 0.25 s on /
  // 0.25 s off square wave at dt 0.05 (P = 10 steps): starting each solve
  // from the previous field cost 1,689 CG iterations against 2,400 cold;
  // the same-phase prediction costs 1,079.
  ScenarioSpec burst = coarse_scenario();
  burst.name = "burst";
  burst.schedule = {{0.25, 1.0}, {0.25, 0.0}};
  timeline::PlaybackOptions burst_options = options;
  burst_options.time_step = 0.05;
  burst_options.max_periods = 20;
  timeline::PlaybackOptions burst_cold = burst_options;
  burst_cold.warm_start = false;
  const timeline::TimelineTrace burst_warm_trace = timeline::play_scenario(burst, burst_options);
  const timeline::TimelineTrace burst_cold_trace = timeline::play_scenario(burst, burst_cold);

  ASSERT_EQ(burst_warm_trace.step_count(), 200u);
  ASSERT_EQ(burst_cold_trace.step_count(), 200u);
  EXPECT_LT(2 * burst_warm_trace.stats.total_cg_iterations,
            burst_cold_trace.stats.total_cg_iterations);
  for (std::size_t p = 0; p < burst_warm_trace.probe_names.size(); ++p) {
    EXPECT_NEAR(burst_warm_trace.samples.back()[p], burst_cold_trace.samples.back()[p], 1e-6);
  }
}

TEST(Timeline, TablesRenderTheTraces) {
  std::vector<ScenarioSpec> suite{coarse_scenario()};
  suite[0].schedule = {{0.4, 1.0}};

  timeline::TimelineBatchOptions options;
  options.playback.time_step = 0.2;
  options.playback.max_periods = 2;
  options.playback.stop_on_settle = false;
  const timeline::TimelineBatchResult result = timeline::TimelineRunner(options).run(suite);

  const Table series = timeline::timeline_table(result);
  EXPECT_EQ(series.row_count(), result.stats.total_steps);
  EXPECT_EQ(series.column_count(), 4u + result.traces[0].probe_names.size());

  const Table summary = timeline::timeline_summary_table(result);
  EXPECT_EQ(summary.row_count(), suite.size());
}

TEST(TimelineRegistry, TransientFamiliesAndSuiteAreRegistered) {
  const std::vector<std::string> families = scenario::family_names();
  EXPECT_NE(std::find(families.begin(), families.end(), "transient_step"), families.end());
  EXPECT_NE(std::find(families.begin(), families.end(), "transient_burst"), families.end());

  const std::vector<std::string> suites = scenario::builtin_suite_names();
  EXPECT_NE(std::find(suites.begin(), suites.end(), "transient"), suites.end());

  const std::vector<ScenarioSpec> suite = scenario::builtin_suite("transient");
  ASSERT_EQ(suite.size(), 4u);
  for (const ScenarioSpec& s : suite) {
    EXPECT_FALSE(s.schedule.empty()) << s.name;
  }

  // Families validate their parameters.
  scenario::FamilySpec bad{"transient_burst", "", ScenarioSpec{}, {1.5}};
  EXPECT_THROW(scenario::expand_family(bad), Error);
}

TEST(Timeline, QuantizationErrorIsTracked) {
  const std::vector<power::ActivityPhase> schedule{{0.25, 1.0}, {0.3, 0.5}, {0.01, 0.0}};
  const timeline::PowerTimeline t = timeline::compile_timeline(schedule, 0.05);
  ASSERT_EQ(t.segments.size(), 3u);
  EXPECT_NEAR(t.requested_period(), 0.56, 1e-12);
  // The first two phases land on the grid; the sub-step third phase is
  // inflated to one full step — the 0.04 s error is tracked, not hidden.
  EXPECT_NEAR(t.segment_error(0), 0.0, 1e-12);
  EXPECT_NEAR(t.segment_error(1), 0.0, 1e-12);
  EXPECT_NEAR(t.segment_error(2), 0.04, 1e-12);
  EXPECT_NEAR(t.quantization_error(), 0.04, 1e-12);
  EXPECT_NEAR(t.relative_period_error(), 0.04 / 0.56, 1e-9);
  EXPECT_THROW(t.segment_error(3), Error);

  // Exact grids carry zero error.
  const timeline::PowerTimeline exact =
      timeline::compile_timeline({{0.4, 1.0}, {0.2, 0.0}}, 0.1);
  EXPECT_NEAR(exact.quantization_error(), 0.0, 1e-12);
  EXPECT_NEAR(exact.relative_period_error(), 0.0, 1e-12);
  // ... and so does the synthetic always-on timeline of an empty schedule.
  EXPECT_EQ(timeline::compile_timeline({}, 0.5).quantization_error(), 0.0);
}

TEST(Timeline, CompileFailsFastWhenTheScheduleDoesNotFitTheGrid) {
  // Both phases are 20x shorter than the step: quantization would play a
  // 0.4 s period instead of 0.02 s. That is a different workload — reject.
  const std::vector<power::ActivityPhase> schedule{{0.01, 1.0}, {0.01, 0.0}};
  EXPECT_THROW(timeline::compile_timeline(schedule, 0.2), SpecError);

  // An explicit (looser) bound admits the grid, and the error stays
  // queryable for the caller to judge.
  const timeline::PowerTimeline t = timeline::compile_timeline(schedule, 0.2, 1e9);
  EXPECT_NEAR(t.relative_period_error(), (0.4 - 0.02) / 0.02, 1e-9);

  // Constant-scale schedules carry no playable period — any grid is exact
  // in what it plays, so the bound must not reject them (a soak phase far
  // longer than the step is the canonical adaptive-dt workload).
  const timeline::PowerTimeline soak = timeline::compile_timeline({{60.0, 1.0}}, 128.0);
  EXPECT_EQ(soak.steps_per_period(), 1u);
}

TEST(TimelineSettle, ReferenceSolveTightensAgainstALooseSolver) {
  ScenarioSpec s = coarse_scenario();
  s.schedule = {{1.0, 1.0}};

  timeline::PlaybackOptions options;
  options.time_step = 2.0;
  options.max_periods = 1;  // the reference guard runs at construction
  options.stop_on_settle = false;
  options.solver.rel_tolerance = 1e-4;  // loose: noise floor ~1e-2 degC at ~80 degC

  // A settle tolerance far above the noise floor keeps the caller's solver
  // settings untouched.
  options.settle_tolerance = 1.0;
  EXPECT_EQ(timeline::play_scenario(s, options).reference_tolerance, 1e-4);

  // One inside the noise floor forces a tighter reference solve: the
  // detector must never compare against solver noise.
  options.settle_tolerance = 5e-3;
  const timeline::TimelineTrace tightened = timeline::play_scenario(s, options);
  EXPECT_LT(tightened.reference_tolerance, 1e-5);

  // And one below what any solve can resolve is refused outright.
  options.settle_tolerance = 1e-18;
  EXPECT_THROW(timeline::play_scenario(s, options), Error);
}

TEST(TimelineRunner, WorkerFailuresSurfaceAsErrorsNamingTheScenario) {
  // The poisoned design passes validate() — every knob is positive and
  // finite — but explodes the coarse mesh past its cell budget when the
  // playback builds the scene inside a pool worker. The failure must
  // surface as a catchable Error naming the scenario on the calling
  // thread, not terminate the process.
  std::vector<ScenarioSpec> suite;
  for (int i = 0; i < 3; ++i) {
    ScenarioSpec s = coarse_scenario();
    s.name = "good_" + std::to_string(i);
    s.schedule = {{0.4, 1.0}};
    suite.push_back(std::move(s));
  }
  ScenarioSpec poisoned = coarse_scenario();
  poisoned.name = "poisoned";
  poisoned.design.global_cell_xy = 1e-6;
  poisoned.design.oni_cell_xy = 1e-6;
  poisoned.design.validate();  // the poison is invisible to validation
  suite.push_back(std::move(poisoned));

  fixtures::ScopedConcurrency budget(4);
  timeline::TimelineBatchOptions options;
  options.playback.time_step = 0.2;
  options.playback.max_periods = 1;
  options.playback.stop_on_settle = false;
  try {
    timeline::TimelineRunner(options).run(suite);
    FAIL() << "poisoned scenario must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("cell budget"), std::string::npos) << e.what();
  }
}

TEST(TimelineAdaptive, ReachesTheFixedDtFieldWithFarFewerSolves) {
  // The settle-bound workload adaptive stepping exists for: one long
  // constant hold, played until the settle detector fires.
  ScenarioSpec s = coarse_scenario();
  s.name = "soak";
  s.schedule = {{60.0, 1.0}};

  timeline::PlaybackOptions fixed;
  fixed.time_step = 0.5;
  fixed.max_periods = 50;
  fixed.settle_tolerance = 0.05;
  fixed.stop_on_settle = true;

  timeline::PlaybackOptions adaptive = fixed;
  adaptive.adaptive = true;

  const timeline::TimelineTrace fixed_trace = timeline::play_scenario(s, fixed);
  const timeline::TimelineTrace adaptive_trace = timeline::play_scenario(s, adaptive);

  ASSERT_TRUE(fixed_trace.settled);
  ASSERT_TRUE(adaptive_trace.settled);
  // Backward Euler is L-stable: the settled field does not depend on the
  // step size, so both playbacks end on the same operating point (both are
  // within settle_tolerance of the same steady reference).
  ASSERT_FALSE(adaptive_trace.samples.empty());
  for (std::size_t p = 0; p < fixed_trace.probe_names.size(); ++p) {
    EXPECT_NEAR(adaptive_trace.samples.back()[p], fixed_trace.samples.back()[p],
                2.0 * fixed.settle_tolerance)
        << fixed_trace.probe_names[p];
  }
  // The step actually grew, the matrix was re-assembled once per growth,
  // and the solve count dropped by at least the acceptance margin (one CG
  // solve per step).
  EXPECT_GE(adaptive_trace.dt_growths, 1u);
  EXPECT_GT(adaptive_trace.final_time_step, fixed.time_step);
  EXPECT_EQ(adaptive_trace.stats.reassemblies, adaptive_trace.dt_growths);
  EXPECT_LE(adaptive_trace.step_count() * 3, fixed_trace.step_count());
  EXPECT_LE(adaptive_trace.stats.total_cg_iterations * 2,
            fixed_trace.stats.total_cg_iterations);
}

TEST(TimelineAdaptive, GrowthRespectsThePeriodBoundOnBurstSchedules) {
  // A bursty schedule can only coarsen while the re-quantized period stays
  // within the bound; with a tight bound the first doubling (exact fit) is
  // admitted and the next (20% period error) is rejected.
  ScenarioSpec s = coarse_scenario();
  s.schedule = {{0.5, 1.0}, {0.5, 0.1}};

  timeline::PlaybackOptions options;
  options.time_step = 0.05;
  options.max_periods = 6;
  options.stop_on_settle = false;
  options.adaptive = true;
  // Growth floor settle_tolerance / 4 = 1e9: always "crawling", so growth
  // is tried every period.
  options.settle_tolerance = 4e9;
  options.max_period_error = 0.05;

  const timeline::TimelineTrace trace = timeline::play_scenario(s, options);
  EXPECT_EQ(trace.dt_growths, 1u);
  EXPECT_EQ(trace.final_time_step, 0.1);
}

TEST(TimelinePeriodic, FiresOnABurstAndNeverOnARamp) {
  // Square wave with a hard off phase: the ripple never falls inside a
  // tight settle tolerance, so only the cycle-over-cycle criterion can end
  // the playback.
  ScenarioSpec burst = coarse_scenario();
  burst.name = "burst";
  burst.schedule = {{0.5, 1.0}, {0.5, 0.0}};

  timeline::PlaybackOptions options;
  options.time_step = 0.5;
  options.max_periods = 3000;
  options.settle_tolerance = 0.02;
  options.stop_on_settle = true;

  const timeline::TimelineTrace trace = timeline::play_scenario(burst, options);
  EXPECT_TRUE(trace.periodic_steady);
  EXPECT_FALSE(trace.settled);
  EXPECT_GT(trace.periodic_steady_time, 0.0);
  EXPECT_GT(trace.cycle_delta, 0.0);
  EXPECT_LE(trace.cycle_delta, options.settle_tolerance);
  // It genuinely terminated the playback, far before the horizon.
  EXPECT_LT(trace.step_count(), 2u * options.max_periods);
  // The playback stopped exactly at the period end that latched the
  // verdict: the held periods (spp == 2) sit at the end of the trace.
  EXPECT_EQ(trace.step_count(), trace.periodic_steady_step + timeline::kPeriodicHoldPeriods * 2u);

  // A ramp (constant schedule) that has not converged must never report a
  // repeating cycle — its shrinking per-step delta is slow convergence,
  // not periodicity — and a settled one must not either (the criterion is
  // gated to genuinely oscillating schedules).
  ScenarioSpec ramp = coarse_scenario();
  ramp.name = "ramp";
  ramp.schedule = {{1.0, 1.0}};
  timeline::PlaybackOptions short_run = options;
  short_run.time_step = 0.2;
  short_run.max_periods = 10;  // 2 s: nowhere near settled
  short_run.stop_on_settle = false;
  const timeline::TimelineTrace ramp_trace = timeline::play_scenario(ramp, short_run);
  EXPECT_FALSE(ramp_trace.settled);
  EXPECT_FALSE(ramp_trace.periodic_steady);
  EXPECT_EQ(ramp_trace.cycle_delta, 0.0);
}

TEST(TimelineCheckpoint, TextRoundTripIsExact) {
  ScenarioSpec s = coarse_scenario();
  s.schedule = {{0.4, 1.0}, {0.2, 0.1}};

  timeline::PlaybackOptions options;
  options.time_step = 0.2;
  options.max_periods = 5;
  options.stop_on_settle = false;

  timeline::Playback playback(s, options);
  ASSERT_EQ(playback.run(4), 4u);  // pause mid-period (spp == 3)
  const timeline::PlaybackCheckpoint ckpt = playback.checkpoint();

  const std::string text = timeline::serialize_checkpoints({ckpt});
  const auto parsed = timeline::parse_checkpoints(text);
  ASSERT_EQ(parsed.size(), 1u);
  const timeline::PlaybackCheckpoint& back = parsed[0];

  EXPECT_EQ(back.scenario, ckpt.scenario);
  EXPECT_EQ(back.base_time_step, ckpt.base_time_step);
  EXPECT_EQ(back.current_time_step, ckpt.current_time_step);
  EXPECT_EQ(back.time, ckpt.time);
  EXPECT_EQ(back.step_in_period, ckpt.step_in_period);
  EXPECT_EQ(back.in_tolerance_run, ckpt.in_tolerance_run);
  EXPECT_EQ(back.cycle_count, ckpt.cycle_count);
  EXPECT_EQ(back.cycle_hold, ckpt.cycle_hold);
  EXPECT_EQ(back.cycle_max_delta, ckpt.cycle_max_delta);
  expect_bit_identical(back.state, ckpt.state, "state");
  ASSERT_EQ(back.cycle_buffer.size(), ckpt.cycle_buffer.size());
  for (std::size_t j = 0; j < back.cycle_buffer.size(); ++j) {
    expect_bit_identical(back.cycle_buffer[j], ckpt.cycle_buffer[j], "cycle slot");
  }
  // Four steps in, the history holds the full period before the state.
  ASSERT_EQ(ckpt.history.size(), 3u);
  ASSERT_EQ(back.history.size(), ckpt.history.size());
  for (std::size_t j = 0; j < back.history.size(); ++j) {
    expect_bit_identical(back.history[j], ckpt.history[j], "history field");
  }
  EXPECT_EQ(back.trace.probe_names, ckpt.trace.probe_names);
  expect_bit_identical(back.trace.times, ckpt.trace.times, "times");
  expect_bit_identical(back.trace.power_scale, ckpt.trace.power_scale, "power_scale");
  expect_bit_identical(back.trace.cg_iterations, ckpt.trace.cg_iterations, "cg");
  ASSERT_EQ(back.trace.samples.size(), ckpt.trace.samples.size());
  for (std::size_t k = 0; k < back.trace.samples.size(); ++k) {
    expect_bit_identical(back.trace.samples[k], ckpt.trace.samples[k], "samples");
  }
  EXPECT_EQ(back.trace.period, ckpt.trace.period);
  EXPECT_EQ(back.trace.stats.total_cg_iterations, ckpt.trace.stats.total_cg_iterations);

  // Malformed input is rejected with context.
  EXPECT_THROW(timeline::parse_checkpoints("state = 1 2 3\n"), SpecError);
  EXPECT_THROW(timeline::parse_checkpoints("playback x\nnope = 1\n"), SpecError);
  EXPECT_THROW(timeline::parse_checkpoints("playback x\nbase_dt = 0.1\n"), SpecError);
}

TEST(TimelineCheckpoint, ResumeContinuesBitIdentically) {
  ScenarioSpec s = coarse_scenario();
  s.schedule = {{0.4, 1.0}, {0.2, 0.1}};

  timeline::PlaybackOptions options;
  options.time_step = 0.2;
  options.max_periods = 5;
  options.stop_on_settle = false;

  const timeline::TimelineTrace uninterrupted = timeline::play_scenario(s, options);

  timeline::Playback first(s, options);
  first.run(4);
  ASSERT_FALSE(first.finished());
  // Round-trip the checkpoint through its text form: the resumed process
  // never sees the in-memory state.
  const auto parsed =
      timeline::parse_checkpoints(timeline::serialize_checkpoints({first.checkpoint()}));
  timeline::Playback resumed(s, options, parsed.at(0));
  resumed.run();
  ASSERT_TRUE(resumed.finished());
  const timeline::TimelineTrace trace = resumed.take_trace();

  expect_bit_identical(trace.times, uninterrupted.times, "times");
  expect_bit_identical(trace.power_scale, uninterrupted.power_scale, "power_scale");
  expect_bit_identical(trace.cg_iterations, uninterrupted.cg_iterations, "cg_iterations");
  ASSERT_EQ(trace.samples.size(), uninterrupted.samples.size());
  for (std::size_t k = 0; k < trace.samples.size(); ++k) {
    expect_bit_identical(trace.samples[k], uninterrupted.samples[k], "samples");
  }
  EXPECT_EQ(trace.settled, uninterrupted.settled);
  EXPECT_EQ(trace.final_delta, uninterrupted.final_delta);
  EXPECT_EQ(trace.stats.steps, uninterrupted.stats.steps);
  EXPECT_EQ(trace.stats.total_cg_iterations, uninterrupted.stats.total_cg_iterations);
  EXPECT_EQ(trace.stats.max_cg_iterations, uninterrupted.stats.max_cg_iterations);

  // Resuming under different options is refused, not silently distorted.
  timeline::PlaybackOptions other = options;
  other.time_step = 0.1;
  EXPECT_THROW(timeline::Playback(s, other, parsed.at(0)), Error);
  ScenarioSpec renamed = s;
  renamed.name = "other";
  EXPECT_THROW(timeline::Playback(renamed, options, parsed.at(0)), Error);

  // Every fill state of the field history. This schedule predicts from one
  // period back (P = 3): steps 1 and P - 1 = 2 pause with the history not
  // yet full, step P = 3 with it just full, 4 (above) and 10 several
  // periods in.
  for (std::size_t pause : {1u, 2u, 3u, 10u}) {
    SCOPED_TRACE("burst, paused after " + std::to_string(pause) + " steps");
    timeline::Playback paused(s, options);
    ASSERT_EQ(paused.run(pause), pause);
    expect_same_trace(resume_to_the_end(paused, s, options), uninterrupted);
  }
  // A constant schedule extrapolates from one step back (P = 1), whatever
  // its compiled period (2 steps here): pause before any step (history
  // empty), at step 1 (just full) and several steps in.
  ScenarioSpec ramp = coarse_scenario();
  ramp.name = "ramp";
  ramp.schedule = {{0.4, 1.0}};
  const timeline::TimelineTrace ramp_uninterrupted = timeline::play_scenario(ramp, options);
  ASSERT_EQ(ramp_uninterrupted.step_count(), 10u);
  for (std::size_t pause : {0u, 1u, 2u, 7u}) {
    SCOPED_TRACE("ramp, paused after " + std::to_string(pause) + " steps");
    timeline::Playback paused(ramp, options);
    ASSERT_EQ(paused.run(pause), pause);
    EXPECT_EQ(paused.checkpoint().history.size(), std::min<std::size_t>(pause, 1));
    expect_same_trace(resume_to_the_end(paused, ramp, options), ramp_uninterrupted);
  }
}

TEST(TimelineCheckpoint, ResumeAcrossAdaptiveGrowthIsBitIdentical) {
  ScenarioSpec s = coarse_scenario();
  s.name = "soak";
  s.schedule = {{60.0, 1.0}};

  timeline::PlaybackOptions options;
  options.time_step = 0.5;
  options.max_periods = 50;
  options.settle_tolerance = 0.05;
  options.stop_on_settle = true;
  options.adaptive = true;

  timeline::Playback uninterrupted(s, options);
  uninterrupted.run();
  const timeline::TimelineTrace full = uninterrupted.take_trace();
  ASSERT_TRUE(full.settled);
  ASSERT_GE(full.dt_growths, 1u);

  // Pause after the step size has already grown at least once.
  timeline::Playback first(s, options);
  std::size_t paused_steps = 0;
  while (!first.finished() && first.trace().dt_growths == 0) {
    first.run(1);
    ++paused_steps;
  }
  ASSERT_FALSE(first.finished());
  first.run(2);  // a couple of steps on the grown grid
  const auto parsed =
      timeline::parse_checkpoints(timeline::serialize_checkpoints({first.checkpoint()}));
  EXPECT_GT(parsed.at(0).current_time_step, options.time_step);

  timeline::Playback resumed(s, options, parsed.at(0));
  resumed.run();
  const timeline::TimelineTrace trace = resumed.take_trace();

  expect_bit_identical(trace.times, full.times, "times");
  expect_bit_identical(trace.cg_iterations, full.cg_iterations, "cg_iterations");
  ASSERT_EQ(trace.samples.size(), full.samples.size());
  for (std::size_t k = 0; k < trace.samples.size(); ++k) {
    expect_bit_identical(trace.samples[k], full.samples[k], "samples");
  }
  EXPECT_EQ(trace.dt_growths, full.dt_growths);
  EXPECT_EQ(trace.final_time_step, full.final_time_step);
  EXPECT_EQ(trace.settle_time, full.settle_time);

  // Pause on the step right after a growth: the growth reset the field
  // history to [T_n], so the checkpoint carries one field before the state.
  ASSERT_GE(full.dt_growths, 2u);
  for (std::size_t growths : {1u, 2u}) {
    SCOPED_TRACE("paused right after growth " + std::to_string(growths));
    timeline::Playback paused(s, options);
    while (!paused.finished() && paused.trace().dt_growths < growths) {
      paused.run(1);
    }
    ASSERT_FALSE(paused.finished());
    EXPECT_EQ(paused.checkpoint().history.size(), 1u);
    expect_same_trace(resume_to_the_end(paused, s, options), full);
  }

  // The same on a burst, where growth also changes P (20 -> 10 steps per
  // period): the settings of TimelineAdaptive.GrowthRespectsThePeriodBound-
  // OnBurstSchedules grow once, at the end of the first period.
  ScenarioSpec burst = coarse_scenario();
  burst.name = "burst";
  burst.schedule = {{0.5, 1.0}, {0.5, 0.1}};
  timeline::PlaybackOptions burst_options;
  burst_options.time_step = 0.05;
  burst_options.max_periods = 6;
  burst_options.stop_on_settle = false;
  burst_options.adaptive = true;
  burst_options.settle_tolerance = 4e9;
  burst_options.max_period_error = 0.05;
  const timeline::TimelineTrace burst_full = timeline::play_scenario(burst, burst_options);
  ASSERT_EQ(burst_full.dt_growths, 1u);
  for (std::size_t after_growth : {1u, 9u, 10u, 11u}) {
    SCOPED_TRACE("burst, paused " + std::to_string(after_growth) + " steps after its growth");
    timeline::Playback paused(burst, burst_options);
    while (!paused.finished() && paused.trace().dt_growths == 0) {
      paused.run(1);
    }
    paused.run(after_growth - 1);
    ASSERT_FALSE(paused.finished());
    EXPECT_EQ(paused.checkpoint().history.size(), std::min<std::size_t>(after_growth, 10));
    expect_same_trace(resume_to_the_end(paused, burst, burst_options), burst_full);
  }
}

TEST(TimelineCheckpoint, LegacyCycleCheckpointStillResumes) {
  // tests/timeline/legacy_cycle_checkpoint.txt was written before the
  // checkpoint carried a field history: it holds the periodic detector's
  // cycle buffer instead, paused four steps into this playback (P = 3, so
  // the buffer has wrapped and its oldest field sits in slot 1).
  ScenarioSpec s = coarse_scenario();
  s.name = "legacy";
  s.design.global_cell_xy = 6e-3;
  s.schedule = {{0.4, 1.0}, {0.2, 0.1}};
  timeline::PlaybackOptions options;
  options.time_step = 0.2;
  options.max_periods = 5;
  options.stop_on_settle = false;

  const std::vector<timeline::PlaybackCheckpoint> checkpoints = timeline::load_checkpoint_file(
      std::string(PHOTHERM_TESTS_DIR) + "/timeline/legacy_cycle_checkpoint.txt");
  ASSERT_EQ(checkpoints.size(), 1u);
  const timeline::PlaybackCheckpoint& legacy = checkpoints[0];
  EXPECT_TRUE(legacy.history.empty());
  EXPECT_EQ(legacy.cycle_count, 4u);
  ASSERT_EQ(legacy.cycle_buffer.size(), 3u);
  EXPECT_EQ(legacy.trace.step_count(), 4u);
  // Its newest slot ((4 - 1) % 3 = 0) is the state itself.
  expect_bit_identical(legacy.cycle_buffer[0], legacy.state, "newest cycle slot");
  // It round-trips as read.
  const std::string text = timeline::serialize_checkpoints(checkpoints);
  EXPECT_EQ(timeline::serialize_checkpoints(timeline::parse_checkpoints(text)), text);

  // The rebuilt history is one field short of a full period, so the first
  // resumed step starts from the previous field instead of the prediction,
  // and the file's own four rows were solved from other guesses: the
  // continuation matches an uninterrupted run within the solver tolerance,
  // not bit for bit. CG stops at a relative residual of 1e-10, which on
  // these ~40 degC fields leaves ~1e-8 degC of room between two valid
  // solves of one step. The yardstick is a cold-started playback (same
  // stopping rule, zero guesses): measured, the legacy continuation is
  // within 6.8e-9 degC of the uninterrupted trace (3.2e-9 in the file's
  // rows) and the cold start within 2.1e-8.
  const timeline::TimelineTrace uninterrupted = timeline::play_scenario(s, options);
  timeline::PlaybackOptions cold_options = options;
  cold_options.warm_start = false;
  const timeline::TimelineTrace cold = timeline::play_scenario(s, cold_options);
  timeline::Playback resumed(s, options, legacy);
  resumed.run();
  const timeline::TimelineTrace trace = resumed.take_trace();
  ASSERT_EQ(trace.step_count(), uninterrupted.step_count());
  ASSERT_EQ(cold.step_count(), uninterrupted.step_count());
  expect_bit_identical(trace.times, uninterrupted.times, "times");
  expect_bit_identical(trace.power_scale, uninterrupted.power_scale, "power_scale");
  const auto max_sample_delta = [&](const timeline::TimelineTrace& other) {
    double delta = 0.0;
    for (std::size_t k = 0; k < other.step_count(); ++k) {
      for (std::size_t p = 0; p < other.probe_names.size(); ++p) {
        delta = std::max(delta, std::abs(other.samples[k][p] - uninterrupted.samples[k][p]));
      }
    }
    return delta;
  };
  const double cold_delta = max_sample_delta(cold);
  EXPECT_GT(cold_delta, 0.0);
  EXPECT_LT(cold_delta, 1e-7);
  EXPECT_LE(max_sample_delta(trace), cold_delta);
  EXPECT_EQ(trace.periodic_steady, uninterrupted.periodic_steady);
  EXPECT_NEAR(trace.cycle_delta, uninterrupted.cycle_delta, 1e-7);
  EXPECT_NEAR(trace.final_delta, uninterrupted.final_delta, 1e-7);
  EXPECT_EQ(trace.stats.steps, uninterrupted.stats.steps);
}

TEST(TimelineCheckpoint, RejectsMalformedCounters) {
  const std::string good =
      "playback x\n"
      "base_dt = 0.05\n"
      "current_dt = 0.05\n"
      "state = 25 25\n"
      "stats = 1 9007199254740993 3 0 0\n"
      "row = 0.05 1 3 20\n";
  const auto parsed = timeline::parse_checkpoints(good);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].trace.cg_iterations, std::vector<std::size_t>{3});
  // 2^53 + 1 has no double: a counter read through one came back as 2^53.
  EXPECT_EQ(parsed[0].trace.stats.total_cg_iterations, std::size_t{9007199254740993u});
  const std::string text = timeline::serialize_checkpoints(parsed);
  EXPECT_EQ(timeline::serialize_checkpoints(timeline::parse_checkpoints(text)), text);

  // Counters are whole non-negative integers; each bad one names its line.
  const auto expect_rejected = [&](const std::string& line, const std::string& bad,
                                   const std::string& where) {
    std::string doctored = good;
    doctored.replace(doctored.find(line), line.size(), bad);
    try {
      timeline::parse_checkpoints(doctored);
      ADD_FAILURE() << "`" << bad << "` must be rejected";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos) << e.what();
    }
  };
  expect_rejected("row = 0.05 1 3 20", "row = 0.05 1 -3 20", "line 6");
  expect_rejected("row = 0.05 1 3 20", "row = 0.05 1 2.7 20", "line 6");
  expect_rejected("stats = 1 9007199254740993 3 0 0", "stats = 1 -2 1e30 0 0", "line 5");
  // Malformed doubles name their line too.
  expect_rejected("state = 25 25", "state = 25 x", "line 4");
}

TEST(TimelineCheckpoint, RunnerPauseAndResumeMatchAtAnyThreadCount) {
  std::vector<ScenarioSpec> suite;
  for (double scale : {1.0, 0.5, 0.25}) {
    ScenarioSpec s = coarse_scenario();
    s.name = "step_" + std::to_string(scale);
    s.schedule = {{0.4, scale}, {0.2, 0.1}};
    suite.push_back(std::move(s));
  }

  timeline::TimelineBatchOptions options;
  options.playback.time_step = 0.2;
  options.playback.max_periods = 3;
  options.playback.stop_on_settle = false;
  const timeline::TimelineBatchResult uninterrupted =
      timeline::TimelineRunner(options).run(suite);
  EXPECT_TRUE(uninterrupted.checkpoints.empty());

  const auto paused_then_resumed = [&](std::size_t threads) {
    fixtures::ScopedConcurrency budget(threads);
    timeline::TimelineBatchOptions paused_options = options;
    paused_options.pause_after_steps = 4;
    const timeline::TimelineBatchResult paused =
        timeline::TimelineRunner(paused_options).run(suite);
    EXPECT_EQ(paused.stats.paused_count, suite.size());
    EXPECT_EQ(paused.stats.total_steps, 4 * suite.size());
    // Through the text round-trip, as the CLI does it.
    const auto checkpoints =
        timeline::parse_checkpoints(timeline::serialize_checkpoints(paused.checkpoints));
    return timeline::TimelineRunner(options).resume(suite, checkpoints);
  };

  // The rendered CSV captures every trace number at full precision, so
  // string equality is bit equality — and it must hold at 1 and 4 threads.
  const std::string golden = timeline::timeline_table(uninterrupted).to_csv();
  EXPECT_EQ(timeline::timeline_table(paused_then_resumed(1)).to_csv(), golden);
  EXPECT_EQ(timeline::timeline_table(paused_then_resumed(4)).to_csv(), golden);

  // Mixed pause: a playback that finishes before the pause step carries no
  // checkpoint; resume replays it from the start and continues the paused
  // one — the batch still reproduces the uninterrupted CSV byte for byte.
  std::vector<ScenarioSpec> mixed;
  ScenarioSpec quick = coarse_scenario();
  quick.name = "quick";
  quick.schedule = {{0.2, 1.0}};  // 1 step/period -> finishes in 3 steps
  mixed.push_back(std::move(quick));
  mixed.push_back(suite[0]);  // 3 steps/period -> 9 steps, paused at 4
  const std::string mixed_golden =
      timeline::timeline_table(timeline::TimelineRunner(options).run(mixed)).to_csv();
  timeline::TimelineBatchOptions mixed_pause = options;
  mixed_pause.pause_after_steps = 4;
  const timeline::TimelineBatchResult partially_paused =
      timeline::TimelineRunner(mixed_pause).run(mixed);
  ASSERT_EQ(partially_paused.stats.paused_count, 1u);
  ASSERT_EQ(partially_paused.checkpoints.size(), 1u);
  EXPECT_EQ(partially_paused.checkpoints[0].scenario, mixed[1].name);
  const timeline::TimelineBatchResult mixed_resumed =
      timeline::TimelineRunner(options).resume(mixed, partially_paused.checkpoints);
  EXPECT_EQ(timeline::timeline_table(mixed_resumed).to_csv(), mixed_golden);

  // A checkpoint for a scenario not in the suite is refused.
  auto checkpoints = timeline::TimelineRunner([&] {
                       timeline::TimelineBatchOptions o = options;
                       o.pause_after_steps = 2;
                       return o;
                     }())
                         .run(suite)
                         .checkpoints;
  std::vector<ScenarioSpec> other_suite{suite[0]};
  other_suite[0].name = "unseen";
  EXPECT_THROW(timeline::TimelineRunner(options).resume(other_suite, checkpoints), Error);
}

TEST(TimelineRegistry, SoakFamilyAndSuiteAreRegistered) {
  const std::vector<std::string> families = scenario::family_names();
  EXPECT_NE(std::find(families.begin(), families.end(), "transient_soak"), families.end());
  const std::vector<std::string> suites = scenario::builtin_suite_names();
  EXPECT_NE(std::find(suites.begin(), suites.end(), "soak"), suites.end());

  const std::vector<ScenarioSpec> suite = scenario::builtin_suite("soak");
  ASSERT_EQ(suite.size(), 2u);
  for (const ScenarioSpec& s : suite) {
    ASSERT_EQ(s.schedule.size(), 1u) << s.name;
    EXPECT_EQ(s.schedule[0].duration, 60.0) << s.name;
  }

  scenario::FamilySpec bad{"transient_soak", "", ScenarioSpec{}, {-1.0}};
  EXPECT_THROW(scenario::expand_family(bad), Error);
}

TEST(TimelineRegistry, RunnerRejectsEmptyAndInvalidInput) {
  timeline::TimelineRunner runner;
  EXPECT_THROW(runner.run({}), Error);

  ScenarioSpec broken = coarse_scenario();
  broken.name = "broken";
  broken.design.global_cell_xy = -1.0;
  try {
    runner.run({broken});
    FAIL() << "invalid design must throw";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }

  // Bad playback options fail when the runner is built, before any
  // scenario plays, so a caller (the CLI's quantized-duty check) never
  // acts on them first.
  timeline::TimelineBatchOptions options;
  options.playback.settle_tolerance = -1.0;
  try {
    const timeline::TimelineRunner refused(options);
    FAIL() << "a negative settle tolerance must throw at construction";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("settle tolerance must be positive"),
              std::string::npos)
        << e.what();
  }
  options.playback.settle_tolerance = 0.02;
  options.playback.max_periods = 0;
  EXPECT_THROW(timeline::TimelineRunner{options}, Error);
}

}  // namespace
}  // namespace photherm
