/// global_ladder: the coarse package pass alone for one design at 1 / 0.5 /
/// 0.25 mm global cells, each solved at top level so the SpMV and the
/// reductions thread inside the pool. Covers resolution scaling and
/// in-kernel threading; skips windows, the cache and SNR.
#include <cmath>

#include "bench.hpp"
#include "layers.hpp"
#include "scenario/scenario.hpp"
#include "util/error.hpp"

namespace e2ebench {

using namespace photherm;

namespace {

std::vector<scenario::ScenarioSpec> ladder_inputs(std::uint64_t seed) {
  Draw draw(seed);
  core::OnocDesignSpec d;
  d.placement = core::OniPlacementMode::kRing;
  d.ring_case_id = 1;
  d.chip_power = draw.rounded(18.0, 32.0, 0.01);
  d.package.t_ambient = draw.rounded(15.0, 45.0, 0.1);
  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& [name, cell] :
       {std::pair{"ladder_1mm", 1e-3}, {"ladder_0p5mm", 0.5e-3}, {"ladder_0p25mm", 0.25e-3}}) {
    scenario::ScenarioSpec s;
    s.name = name;
    s.design = d;
    s.design.global_cell_xy = cell;
    specs.push_back(std::move(s));
  }
  return specs;
}

class GlobalLadder final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    specs_ = scenario::parse_scenarios(scenario::serialize_scenarios(ladder_inputs(seed)));
    designers_.clear();
    cells_ = 0.0;
    for (const scenario::ScenarioSpec& s : specs_) {
      designers_.emplace_back(s.effective_design());
      cells_ += static_cast<double>(global_cells(designers_.back()));
    }
  }

  std::size_t scenarios_per_rep() const override { return specs_.size(); }

  void run_pipeline() override {
    fields_.clear();
    for (const core::ThermalAwareDesigner& d : designers_) {
      fields_.push_back(d.solve_global().field);
    }
  }

  void check_rep(Ledger& ledger) override {
    const bool first = first_.empty();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const thermal::ThermalField& f = fields_[i];
      if (first) {
        first_.push_back(f.temperatures());
      }
      check_field(ledger, f, i, "");
      ledger.record(same_bits(f.temperatures(), first_[i]), 1,
                    "global_ladder: " + specs_[i].name + " differs from repetition 1");
    }
  }

  Cells finish(Ledger& ledger) override {
    Cells cells;
    for (const thermal::ThermalField& f : fields_) {
      cells.solved += static_cast<double>(f.mesh().cell_count());
    }
    ledger.record(cells.solved == cells_, 1,
                  "global_ladder: the solved meshes differ from the set-up meshes");
    cells.meshed = cells.solved;
    return cells;
  }

  void walk(Tracer& tracer, Ledger& ledger, WalkCounts& counts) override {
    std::vector<thermal::ThermalField> fields;
    {
      auto rep = tracer.span(kRepSpan);
      for (const core::ThermalAwareDesigner& d : designers_) {
        fields.push_back(solve_global_layers(tracer, d, counts).field);
      }
    }
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      check_field(ledger, fields[i], i, " walk");
      ledger.record(same_bits(fields[i].temperatures(), first_[i]), 1,
                    "global_ladder walk: " + specs_[i].name + " differs from the pipeline");
    }
  }

  void describe(std::ostream& os) const override {
    const core::OnocDesignSpec& d = specs_.front().design;
    os << "global_ladder: chip_power " << d.chip_power << " W, ambient " << d.package.t_ambient
       << " degC, global cells 1 / 0.5 / 0.25 mm\n";
  }

 private:
  /// Energy balance and plausibility of one steady package field.
  void check_field(Ledger& ledger, const thermal::ThermalField& f, std::size_t i,
                   const char* where) const {
    const core::ThermalAwareDesigner& d = designers_[i];
    const double imbalance = energy_balance_error(f, d.boundary_conditions());
    ledger.record(imbalance <= kEnergyTolerance, 1,
                  "global_ladder" + std::string(where) + ": energy balance of " +
                      specs_[i].name + " off by " + std::to_string(imbalance));
    const double ambient = d.spec().package.t_ambient;
    ledger.record(std::isfinite(f.global_max()) && f.global_min() >= ambient - 1e-6 &&
                      f.global_max() < ambient + 500.0,
                  1, "global_ladder" + std::string(where) + ": non-physical field for " +
                         specs_[i].name);
  }

  std::vector<scenario::ScenarioSpec> specs_;
  std::vector<core::ThermalAwareDesigner> designers_;
  std::vector<thermal::ThermalField> fields_;
  double cells_ = 0.0;  ///< global cells of the three rungs, from the set-up
  std::vector<std::vector<double>> first_;  ///< temperatures of repetition 1
};

}  // namespace

std::unique_ptr<Workload> make_global_ladder() { return std::make_unique<GlobalLadder>(); }

}  // namespace e2ebench
