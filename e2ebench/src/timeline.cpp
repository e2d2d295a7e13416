/// timeline: the per-step hot loop. A transient-shaped suite (2 power steps
/// and 2 square-wave bursts on the 3 mm package scene) through
/// timeline::TimelineRunner on a fixed grid: dt 0.05 s, 40 periods,
/// warm-started, no early stop, so 4 x 800 steps on a 1,440-cell mesh.
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "core/methodology.hpp"
#include "layers.hpp"
#include "scenario/registry.hpp"
#include "timeline/runner.hpp"
#include "util/error.hpp"

namespace e2ebench {

using namespace photherm;

namespace {

/// Every number of a trace, in a fixed order, for bitwise comparison.
std::vector<double> trace_values(const timeline::TimelineTrace& t) {
  std::vector<double> v(t.times);
  v.insert(v.end(), t.power_scale.begin(), t.power_scale.end());
  for (std::size_t it : t.cg_iterations) {
    v.push_back(static_cast<double>(it));
  }
  for (const std::vector<double>& row : t.samples) {
    v.insert(v.end(), row.begin(), row.end());
  }
  v.insert(v.end(), {t.settled ? 1.0 : 0.0, t.settle_time, t.final_delta,
                     t.periodic_steady ? 1.0 : 0.0, t.cycle_delta, t.final_time_step,
                     static_cast<double>(t.stats.total_cg_iterations)});
  return v;
}

std::vector<scenario::ScenarioSpec> timeline_inputs(std::uint64_t seed) {
  Draw draw(seed);
  scenario::ScenarioSpec base;
  base.name = "base";
  core::OnocDesignSpec& d = base.design;
  d.placement = core::OniPlacementMode::kRing;
  d.ring_case_id = 1;
  d.chip_power = 25.0;
  d.global_cell_xy = 3e-3;
  d.oni_cell_xy = 40e-6;
  d.oni_cell_z = 2e-6;

  // Two distinct step scales, two distinct burst duties on the dt grid.
  const double s1 = draw.rounded(0.3, 1.2, 0.01);
  double s2 = s1;
  while (s2 == s1) {
    s2 = draw.rounded(0.3, 1.2, 0.01);
  }
  const std::size_t d1 = 4 + draw.pick(13);  // duty = k * 0.05, k in [4, 16]
  std::size_t d2 = d1;
  while (d2 == d1) {
    d2 = 4 + draw.pick(13);
  }
  std::vector<scenario::ScenarioSpec> specs =
      scenario::expand_family({"transient_step", "", base, {s1, s2}});
  for (scenario::ScenarioSpec& s : scenario::expand_family(
           {"transient_burst", "", base,
            {static_cast<double>(d1) * 0.05, static_cast<double>(d2) * 0.05}})) {
    specs.push_back(std::move(s));
  }
  return specs;
}

class Timeline final : public Workload {
 public:
  Timeline() {
    options_.playback.time_step = 0.05;
    options_.playback.max_periods = 40;
    options_.playback.stop_on_settle = false;
  }

  void setup(std::uint64_t seed) override {
    specs_ = scenario::parse_scenarios(scenario::serialize_scenarios(timeline_inputs(seed)));
    expected_steps_ = 0;
    global_cells_.clear();
    for (const scenario::ScenarioSpec& s : specs_) {
      global_cells_.push_back(global_cells(core::ThermalAwareDesigner(s.design)));
      const timeline::PowerTimeline grid = timeline::compile_timeline(
          s.schedule, options_.playback.time_step, options_.playback.max_period_error);
      expected_steps_ += options_.playback.max_periods * grid.steps_per_period();
    }
  }

  std::size_t scenarios_per_rep() const override { return specs_.size(); }

  void run_pipeline() override { last_ = timeline::TimelineRunner(options_).run(specs_); }

  void check_rep(Ledger& ledger) override {
    const timeline::TimelineBatchStats& stats = last_->stats;
    ledger.record(stats.total_steps == expected_steps_ && stats.paused_count == 0, 1,
                  "timeline: expected " + std::to_string(expected_steps_) + " steps, got " +
                      std::to_string(stats.total_steps));
    const bool first = first_.empty();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const timeline::TimelineTrace& t = last_->traces[i];
      if (first) {
        first_.push_back(trace_values(t));
      }
      ledger.record(sane(t, specs_[i].design.package.t_ambient), 1,
                    "timeline: non-physical trace for " + specs_[i].name);
      ledger.record(same_bits(trace_values(t), first_[i]), 1,
                    "timeline: trace of " + specs_[i].name + " differs from repetition 1");
    }
    // The rendered CSV of two repetitions must be byte-identical.
    if (first) {
      first_csv_ = timeline::timeline_table(*last_).to_csv();
    } else if (!second_csv_checked_) {
      second_csv_checked_ = true;
      ledger.record(timeline::timeline_table(*last_).to_csv() == first_csv_, 1,
                    "timeline: repetitions 1 and 2 render different trace CSVs");
    }
  }

  Cells finish(Ledger& /*ledger*/) override {
    Cells cells;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const double n = static_cast<double>(global_cells_[i]);
      // Every step solves the mesh once, plus one steady settle reference.
      cells.solved += n * static_cast<double>(last_->traces[i].step_count() + 1);
      cells.meshed += n;
    }
    return cells;
  }

  void walk(Tracer& tracer, Ledger& ledger, WalkCounts& counts) override {
    std::vector<timeline::TimelineTrace> traces;
    {
      auto rep = tracer.span(kRepSpan);
      for (const scenario::ScenarioSpec& s : specs_) {
        std::optional<timeline::Playback> playback;
        {
          auto span = tracer.span("timeline.setup");
          playback.emplace(s, options_.playback);
        }
        while (!playback->finished()) {
          auto span = tracer.span("timeline.step");
          const std::size_t taken = playback->run(1);
          counts.steps += taken;
          if (taken == 0) {
            break;
          }
        }
        traces.push_back(playback->take_trace());
      }
    }
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      ledger.record(same_bits(trace_values(traces[i]), first_[i]), 1,
                    "timeline walk: " + specs_[i].name + " differs from the pipeline");
    }
  }

  std::vector<std::string> batch_spans() const override { return {"playback.scenario"}; }
  double sim_seconds_per_rep() const override {
    return static_cast<double>(expected_steps_) * options_.playback.time_step;
  }
  std::size_t steps_per_rep() const override { return last_ ? last_->stats.total_steps : 0; }
  std::size_t step_cg_iterations_per_rep() const override {
    return last_ ? last_->stats.total_cg_iterations : 0;
  }

  void describe(std::ostream& os) const override {
    os << "timeline: " << specs_.size() << " scenarios (";
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      os << (i ? ", " : "") << specs_[i].name;
    }
    os << "), " << expected_steps_ << " steps of " << options_.playback.time_step << " s\n";
  }

 private:
  static bool sane(const timeline::TimelineTrace& t, double ambient) {
    bool ok = !t.samples.empty() && t.cg_iterations.size() == t.samples.size();
    for (const std::vector<double>& row : t.samples) {
      ok = ok && row.size() == t.probe_names.size();
      for (std::size_t p = 0; ok && p < row.size(); ++p) {
        // Gradient probes are spreads; every other probe is a temperature.
        const double floor =
            t.probe_names[p].find("gradient") != std::string::npos ? 0.0 : ambient - 1e-6;
        ok = std::isfinite(row[p]) && row[p] >= floor && row[p] < ambient + 500.0;
      }
    }
    return ok;
  }

  timeline::TimelineBatchOptions options_;
  std::vector<scenario::ScenarioSpec> specs_;
  std::size_t expected_steps_ = 0;
  std::vector<std::size_t> global_cells_;  ///< per scenario
  std::optional<timeline::TimelineBatchResult> last_;
  std::vector<std::vector<double>> first_;  ///< trace values of repetition 1
  std::string first_csv_;
  bool second_csv_checked_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_timeline() { return std::make_unique<Timeline>(); }

}  // namespace e2ebench
