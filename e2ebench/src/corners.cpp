/// corners: the paper's design-space use. A corners-shaped suite (4 traffic
/// patterns, 3 ambient corners, a 3-step WDM ladder; 2 mm global cells,
/// 20 um ONI cells) through scenario::BatchRunner with the coarse-solve
/// cache on: 10 scenarios over 7 distinct global scenes, so 3 cache hits.
#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "bench.hpp"
#include "layers.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace e2ebench {

using namespace photherm;

namespace {

constexpr std::size_t kScenarios = 10;
constexpr std::size_t kScenes = 7;

/// The base scenario is random activity (seeded) at the middle ambient
/// corner. Traffic scenarios replace the activity with the four
/// deterministic patterns; the ambient corners keep the random activity; the
/// WDM ladder differs from the middle corner only in SNR knobs. So every
/// seed gives 4 + 3 scenes and the ladder's 3 scenarios hit the cache.
std::vector<scenario::ScenarioSpec> corners_inputs(std::uint64_t seed) {
  Draw draw(seed);
  scenario::ScenarioSpec base;
  base.name = "base";
  core::OnocDesignSpec& d = base.design;
  d.placement = core::OniPlacementMode::kRing;
  d.ring_case_id = 1;
  d.activity = power::ActivityKind::kRandom;
  d.seed = 1 + draw.next() % 1000000;
  d.chip_power = draw.rounded(18.0, 32.0, 0.01);
  d.global_cell_xy = 2e-3;
  d.oni_cell_xy = 20e-6;
  d.oni_cell_z = 2e-6;
  const double cold = draw.rounded(-40.0, -10.0, 0.1);
  const double mid = draw.rounded(15.0, 45.0, 0.1);
  const double hot = draw.rounded(70.0, 95.0, 0.1);
  d.package.t_ambient = mid;

  std::vector<scenario::ScenarioSpec> specs;
  for (const scenario::FamilySpec& family :
       {scenario::FamilySpec{"traffic", "", base, {}},
        scenario::FamilySpec{"ambient", "", base, {cold, mid, hot}},
        scenario::FamilySpec{"wdm_ladder", "", base, {4.0, 8.0, 16.0}}}) {
    for (scenario::ScenarioSpec& s : scenario::expand_family(family)) {
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

class Corners final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    // The program receives the generated suite as a scenario file.
    specs_ = scenario::parse_scenarios(scenario::serialize_scenarios(corners_inputs(seed)));
    PH_REQUIRE(specs_.size() == kScenarios, "corners suite must have 10 scenarios");
    designers_.clear();
    for (const scenario::ScenarioSpec& s : specs_) {
      designers_.emplace_back(s.effective_design());
    }
    group(designers_);
    PH_REQUIRE(representative_.size() == kScenes, "corners suite must have 7 global scenes");
    for (std::size_t r : representative_) {
      PH_REQUIRE(global_cells(designers_[r]) > 0, "corners: empty global mesh");
    }
  }

  std::size_t scenarios_per_rep() const override { return kScenarios; }

  void run_pipeline() override { last_ = scenario::BatchRunner().run(specs_); }

  void check_rep(Ledger& ledger) override {
    const scenario::BatchStats& stats = last_->stats;
    ledger.record(stats.scenario_count == kScenarios && stats.global_solves == kScenes &&
                      stats.cache_hits == kScenarios - kScenes,
                  1, "corners: expected 10 scenarios over 7 global solves and 3 cache hits");
    if (first_.empty()) {
      for (const core::DesignReport& r : last_->reports) {
        first_.push_back(report_values(r));
      }
    }
    for (std::size_t i = 0; i < kScenarios; ++i) {
      const core::DesignReport& r = last_->reports[i];
      ledger.record(sane(r), 1, "corners: non-physical report for " + specs_[i].name);
      ledger.record(same_bits(report_values(r), first_[i]), 1,
                    "corners: report of " + specs_[i].name + " differs from repetition 1");
    }
  }

  Cells finish(Ledger& ledger) override {
    // One cold global solve per distinct scene: energy balance, and the
    // cached reports must carry that field's chip average bit for bit.
    Cells cells;
    for (std::size_t g = 0; g < representative_.size(); ++g) {
      const core::ThermalAwareDesigner& d = designers_[representative_[g]];
      const core::CoarseGlobalSolve global = d.solve_global();
      const double imbalance = energy_balance_error(global.field, d.boundary_conditions());
      ledger.record(imbalance <= kEnergyTolerance, 1,
                    "corners: global energy balance off by " + std::to_string(imbalance));
      const double chip = global.field.average_in(heat_box(d.spec(), global.system));
      for (std::size_t i = 0; i < kScenarios; ++i) {
        if (group_of_[i] == g) {
          ledger.record(first_.empty() || chip == first_[i][0], 1,
                        "corners: cached chip average of " + specs_[i].name +
                            " differs from a cold solve");
        }
      }
      cells.solved += static_cast<double>(global.field.mesh().cell_count());
      for (std::size_t i = 0; i < kScenarios; ++i) {
        if (group_of_[i] != g) {
          continue;
        }
        for (const soc::OniInstance& oni : global.system.onis) {
          const OniWindow w = oni_window(designers_[i].spec(), global.system, oni);
          cells.solved += static_cast<double>(
              mesh::RectilinearMesh::build(global.system.scene, w.box, w.options).cell_count());
        }
      }
    }
    cells.meshed = cells.solved;
    return cells;
  }

  void walk(Tracer& tracer, Ledger& ledger, WalkCounts& counts) override {
    std::vector<GlobalLayers> globals;
    std::vector<core::DesignReport> reports(kScenarios);
    {
      auto rep = tracer.span(kRepSpan);
      std::vector<core::ThermalAwareDesigner> designers;
      {
        auto span = tracer.span("scenario.validate");
        for (const scenario::ScenarioSpec& s : specs_) {
          designers.emplace_back(s.effective_design());
        }
      }
      {
        auto span = tracer.span("scenario.group");
        group(designers);
      }
      for (std::size_t g = 0; g < representative_.size(); ++g) {
        globals.push_back(solve_global_layers(tracer, designers[representative_[g]], counts));
      }
      for (std::size_t i = 0; i < kScenarios; ++i) {
        const core::ThermalAwareDesigner& d = designers[i];
        const GlobalLayers& global = globals[group_of_[i]];
        const soc::SccSystem& system = global.system;
        core::ThermalReport thermal;
        {
          auto span = tracer.span("thermal.field_query");
          thermal.chip_average = global.field.average_in(heat_box(d.spec(), system));
        }
        for (const soc::OniInstance& oni : system.onis) {
          std::shared_ptr<const mesh::RectilinearMesh> mesh;
          thermal::BoundarySet bcs;
          OniWindow w;
          {
            auto span = tracer.span("mesh.build");
            w = oni_window(d.spec(), system, oni);
            mesh = std::make_shared<const mesh::RectilinearMesh>(
                mesh::RectilinearMesh::build(system.scene, w.box, w.options));
          }
          {
            auto span = tracer.span("thermal.window_bcs");
            bcs = window_bcs(global.bcs, system.scene.bounding_box(), w.box, global.field);
          }
          const thermal::ThermalField field = solve_layers(tracer, std::move(mesh), bcs, counts);
          auto span = tracer.span("thermal.field_query");
          thermal.onis.push_back(oni_report(field, system, oni));
        }
        std::vector<double> averages;
        for (const core::OniThermalReport& r : thermal.onis) {
          averages.push_back(r.average);
          thermal.max_gradient = std::max(thermal.max_gradient, r.gradient);
        }
        thermal.oni_average = mean(averages);
        thermal.oni_spread = spread(averages);
        reports[i].spec = d.spec();
        reports[i].thermal = std::move(thermal);
        auto span = tracer.span("noc.snr");
        reports[i].snr = d.analyze_snr(reports[i].thermal);
      }
    }
    for (const GlobalLayers& global : globals) {
      const double imbalance = energy_balance_error(global.field, global.bcs);
      ledger.record(imbalance <= kEnergyTolerance, 1,
                    "corners walk: global energy balance off by " + std::to_string(imbalance));
    }
    for (std::size_t i = 0; i < kScenarios; ++i) {
      ledger.record(same_bits(report_values(reports[i]), first_[i]), 1,
                    "corners walk: " + specs_[i].name + " differs from the pipeline");
    }
  }

  void traced_checks(Ledger& ledger) override {
    // The program's determinism contract: a budget of 1 thread gives the
    // same reports as the budget of 2, bit for bit.
    util::set_concurrency(1);
    std::optional<scenario::BatchResult> serial;
    try {
      serial = scenario::BatchRunner().run(specs_);
    } catch (const std::exception& e) {
      ledger.record(false, kScenarios, std::string("corners at 1 thread: ") + e.what());
    }
    util::set_concurrency(kThreads);
    if (serial) {
      for (std::size_t i = 0; i < kScenarios; ++i) {
        ledger.record(same_bits(report_values(serial->reports[i]), first_[i]), 1,
                      "corners: " + specs_[i].name + " differs between 1 and 2 threads");
      }
    }
  }

  std::vector<std::string> batch_spans() const override {
    return {"batch.global_solve", "batch.scenario"};
  }
  std::size_t cache_hits() const override { return last_ ? last_->stats.cache_hits : 0; }

  void describe(std::ostream& os) const override {
    const core::OnocDesignSpec& d = specs_.back().design;
    os << "corners: " << specs_.size() << " scenarios, chip_power " << d.chip_power
       << " W, activity seed " << d.seed << ", ambient corners";
    for (std::size_t i = 4; i < 7; ++i) {
      os << " " << specs_[i].design.package.t_ambient;
    }
    os << " degC\n";
  }

 private:
  /// Group scenarios by global scene key, as BatchRunner does.
  void group(const std::vector<core::ThermalAwareDesigner>& designers) {
    std::unordered_map<std::string, std::size_t> index;
    representative_.clear();
    group_of_.assign(kScenarios, 0);
    for (std::size_t i = 0; i < kScenarios; ++i) {
      const auto [it, fresh] =
          index.try_emplace(designers[i].global_scene_key(), representative_.size());
      if (fresh) {
        representative_.push_back(i);
      }
      group_of_[i] = it->second;
    }
  }

  static bool sane(const core::DesignReport& r) {
    const double ambient = r.spec.package.t_ambient;
    const auto plausible = [ambient](double t) {
      return std::isfinite(t) && t >= ambient - 1e-6 && t < ambient + 500.0;
    };
    bool ok = plausible(r.thermal.chip_average) && r.thermal.onis.size() == 4 &&
              r.snr.has_value() && std::isfinite(r.snr->network.worst_snr_db);
    for (const core::OniThermalReport& oni : r.thermal.onis) {
      ok = ok && plausible(oni.average) && plausible(oni.vcsel_average) &&
           plausible(oni.mr_average) && std::isfinite(oni.gradient) && oni.gradient >= 0.0;
    }
    return ok;
  }

  std::vector<scenario::ScenarioSpec> specs_;
  std::vector<core::ThermalAwareDesigner> designers_;
  std::optional<scenario::BatchResult> last_;
  std::vector<std::vector<double>> first_;  ///< report values of repetition 1
  std::vector<std::size_t> representative_;
  std::vector<std::size_t> group_of_;
};

}  // namespace

std::unique_ptr<Workload> make_corners() { return std::make_unique<Corners>(); }

}  // namespace e2ebench
