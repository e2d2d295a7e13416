#include "core/methodology.hpp"

#include <algorithm>
#include <cmath>
#include <ios>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace photherm::core {

using geometry::BlockKind;
using geometry::Box3;
using geometry::Vec3;

const OniThermalReport& ThermalReport::hottest() const {
  PH_REQUIRE(!onis.empty(), "thermal report has no ONIs");
  const OniThermalReport* hottest = &onis.front();
  for (const OniThermalReport& r : onis) {
    if (r.average > hottest->average) {
      hottest = &r;
    }
  }
  return *hottest;
}

Table ThermalReport::to_table() const {
  Table table({"ONI", "avg T (degC)", "gradient (degC)", "VCSEL avg", "MR avg", "VCSEL-MR"});
  for (const OniThermalReport& r : onis) {
    table.add_row({static_cast<double>(r.oni), r.average, r.gradient, r.vcsel_average,
                   r.mr_average, r.vcsel_to_mr});
  }
  return table;
}

Table SnrReport::to_table() const {
  Table table({"src", "dst", "wg", "ch", "OPnet (mW)", "signal (mW)", "crosstalk (mW)",
               "SNR (dB)", "detectable"});
  for (const noc::CommResult& c : network.comms) {
    table.add_row({static_cast<double>(c.comm.src), static_cast<double>(c.comm.dst),
                   static_cast<double>(c.comm.waveguide), static_cast<double>(c.comm.channel),
                   c.op_net * 1e3, c.signal_power * 1e3, c.crosstalk_power * 1e3, c.snr_db,
                   std::string(c.detectable ? "yes" : "NO")});
  }
  return table;
}

bool DesignReport::gradient_ok() const { return thermal.max_gradient < 1.0; }

bool DesignReport::links_ok() const {
  return !snr || snr->network.undetectable_count == 0;
}

ThermalAwareDesigner::ThermalAwareDesigner(OnocDesignSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

soc::SccSystem ThermalAwareDesigner::build_system() const {
  soc::SccBuilder builder(spec_.package, spec_.oni_layout);
  builder.set_activity(spec_.activity, spec_.chip_power).set_seed(spec_.seed);

  soc::OniPowerConfig power;
  power.p_vcsel = spec_.p_vcsel;
  power.p_driver = spec_.p_driver();
  power.p_heater = spec_.p_heater();
  power.active_tx_per_waveguide = spec_.active_tx_per_waveguide;
  builder.set_oni_power(power);

  if (spec_.placement == OniPlacementMode::kRing) {
    const soc::RingCase rc =
        soc::ring_case(spec_.ring_case_id, spec_.package.die_x, spec_.package.die_y);
    for (const soc::RingSite& site : rc.sites) {
      builder.add_oni(site.center.x, site.center.y);
    }
  } else {
    for (std::size_t j = 0; j < spec_.package.tiles_y; ++j) {
      for (std::size_t i = 0; i < spec_.package.tiles_x; ++i) {
        builder.add_oni_on_tile(i, j);
      }
    }
  }
  return builder.build();
}

thermal::BoundarySet ThermalAwareDesigner::boundary_conditions() const {
  return thermal::BoundarySet::package(spec_.package.h_top, spec_.package.h_bottom,
                                       spec_.package.t_ambient);
}

mesh::MeshOptions ThermalAwareDesigner::global_mesh_options() const {
  mesh::MeshOptions options;
  options.default_max_cell_xy = spec_.global_cell_xy;
  options.min_feature_size_xy = 200e-6;  // skip device geometry at chip scale
  return options;
}

thermal::TwoLevelOptions ThermalAwareDesigner::two_level_options() const {
  thermal::TwoLevelOptions options;
  options.global_mesh = global_mesh_options();
  options.local_mesh.default_max_cell_xy = 25e-6;
  options.local_mesh.min_feature_size_xy = 0.0;
  options.window_margin = spec_.window_margin;
  return options;
}

namespace {

/// Average temperature over a set of device blocks (volume-weighted by
/// block; blocks of one ONI have equal volumes per kind).
double average_over_blocks(const thermal::ThermalField& field,
                           const std::vector<const geometry::Block*>& blocks) {
  PH_REQUIRE(!blocks.empty(), "no device blocks to average over");
  double acc = 0.0;
  for (const geometry::Block* b : blocks) {
    acc += field.average_in(b->box);
  }
  return acc / static_cast<double>(blocks.size());
}

/// Spread between the per-device average temperatures of the lasers and
/// rings of one ONI — the paper's intra-interface "gradient temperature"
/// (the quantity the MR heaters must keep below 1 degC so that a single
/// run-time calibration covers the whole interface).
double device_gradient(const thermal::ThermalField& field,
                       const std::vector<const geometry::Block*>& vcsels,
                       const std::vector<const geometry::Block*>& rings) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto* list : {&vcsels, &rings}) {
    for (const geometry::Block* b : *list) {
      const double t = field.average_in(b->box);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  }
  PH_REQUIRE(lo <= hi, "no devices found for the gradient evaluation");
  return hi - lo;
}

/// Stable spelling of a double for the scene key: hexfloat is exact, so two
/// scenes serialize identically iff every number is bit-identical.
void key_number(std::ostream& os, double value) { os << std::hexfloat << value << '|'; }

}  // namespace

std::string ThermalAwareDesigner::global_scene_key() const {
  const soc::SccSystem system = build_system();
  std::ostringstream os;
  const auto num = [&os](double v) { key_number(os, v); };

  const thermal::BoundarySet bcs = boundary_conditions();
  os << "bcs:";
  for (const thermal::FaceBc& bc : bcs.faces) {
    os << static_cast<int>(bc.kind) << '|';
    num(bc.h);
    num(bc.t_ambient);
    num(bc.t_wall);
  }

  const thermal::TwoLevelOptions options = two_level_options();
  os << "mesh:" << options.global_mesh.max_cells << '|';
  num(options.global_mesh.default_max_cell_xy);
  num(options.global_mesh.default_max_cell_z);
  num(options.global_mesh.min_feature_size_xy);

  // The thread budget is deliberately excluded: results are bit-identical
  // for every thread count (thread_pool.hpp contract). So are the solver
  // options: every designer solves with the default SteadyStateOptions.
  os << "scene:";
  const geometry::MaterialLibrary& materials = system.scene.materials();
  for (const geometry::Block& block : system.scene.blocks()) {
    const geometry::Material& mat = materials.get(block.material);
    os << block.name << '|' << static_cast<int>(block.kind) << '|' << block.group << '|'
       << mat.name << '|';
    num(block.box.lo.x);
    num(block.box.lo.y);
    num(block.box.lo.z);
    num(block.box.hi.x);
    num(block.box.hi.y);
    num(block.box.hi.z);
    num(block.power);
    num(mat.conductivity);
    num(mat.density);
    num(mat.specific_heat);
  }

  os << "onis:";
  for (const soc::OniInstance& oni : system.onis) {
    os << oni.index << '|';
    num(oni.footprint.lo.x);
    num(oni.footprint.lo.y);
    num(oni.footprint.lo.z);
    num(oni.footprint.hi.x);
    num(oni.footprint.hi.y);
    num(oni.footprint.hi.z);
  }
  return os.str();
}

CoarseGlobalSolve ThermalAwareDesigner::solve_global() const {
  soc::SccSystem system = build_system();
  const thermal::TwoLevelOptions options = two_level_options();
  auto global_mesh = std::make_shared<const mesh::RectilinearMesh>(
      mesh::RectilinearMesh::build(system.scene, options.global_mesh));
  thermal::ThermalField field =
      thermal::solve_steady_state(std::move(global_mesh), boundary_conditions());
  return CoarseGlobalSolve{std::move(system), std::move(field)};
}

OniThermalReport ThermalAwareDesigner::evaluate_oni_window(
    const soc::SccSystem& system, const thermal::BoundarySet& bcs,
    const thermal::TwoLevelOptions& options, const soc::OniInstance& oni,
    const thermal::ThermalField& global_field) const {
  // Fine window around this interface; refinement box = the footprint.
  thermal::TwoLevelOptions local_options = options;
  mesh::RefinementBox refine;
  refine.box =
      Box3::make({oni.footprint.lo.x, oni.footprint.lo.y, system.z.beol_lo},
                 {oni.footprint.hi.x, oni.footprint.hi.y, system.z.optical_hi + 5e-6});
  refine.max_cell_xy = spec_.oni_cell_xy;
  refine.max_cell_z = spec_.oni_cell_z;
  local_options.local_mesh.refinements.push_back(refine);

  const Box3 domain = system.scene.bounding_box();
  const Box3 window = Box3::make({oni.footprint.lo.x, oni.footprint.lo.y, domain.lo.z},
                                 {oni.footprint.hi.x, oni.footprint.hi.y, domain.hi.z});
  const thermal::ThermalField local_field =
      thermal::solve_local_window(system.scene, bcs, global_field, window, local_options);

  const auto vcsels = system.scene.find(BlockKind::kVcsel, oni.index);
  const auto rings = system.scene.find(BlockKind::kMicroRing, oni.index);
  OniThermalReport r;
  r.oni = oni.index;
  r.average = local_field.average_in(oni.footprint);
  r.gradient = device_gradient(local_field, vcsels, rings);
  r.peak_spread = local_field.spread_in(oni.footprint);
  r.vcsel_average = average_over_blocks(local_field, vcsels);
  r.mr_average = average_over_blocks(local_field, rings);
  r.vcsel_to_mr = r.vcsel_average - r.mr_average;
  return r;
}

ThermalReport ThermalAwareDesigner::evaluate_thermal(std::optional<int> only_oni) const {
  return evaluate_thermal(solve_global(), only_oni);
}

ThermalReport ThermalAwareDesigner::evaluate_thermal(const CoarseGlobalSolve& global,
                                                     std::optional<int> only_oni) const {
  const soc::SccSystem& system = global.system;
  const thermal::BoundarySet bcs = boundary_conditions();
  const thermal::TwoLevelOptions options = two_level_options();

  ThermalReport report;
  const Box3 heat_box = Box3::make({0.0, 0.0, system.z.heat_lo},
                                   {spec_.package.die_x, spec_.package.die_y, system.z.heat_hi});
  report.chip_average = global.field.average_in(heat_box);

  std::vector<const soc::OniInstance*> selected;
  for (const soc::OniInstance& oni : system.onis) {
    if (!only_oni || oni.index == *only_oni) {
      selected.push_back(&oni);
    }
  }
  PH_REQUIRE(!selected.empty(), "no ONI was evaluated (bad only_oni index?)");

  // Each window is an independent local solve; results land at the ONI's
  // slot in `selected` order, so values and order match the serial loop at
  // every thread count. Nested regions (the solver kernels inside each
  // window) run inline on the worker (thread_pool.hpp).
  report.onis.resize(selected.size());
  util::parallel_for(selected.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      report.onis[idx] = evaluate_oni_window(system, bcs, options, *selected[idx], global.field);
    }
  });

  std::vector<double> averages;
  report.max_gradient = 0.0;
  for (const OniThermalReport& r : report.onis) {
    averages.push_back(r.average);
    report.max_gradient = std::max(report.max_gradient, r.gradient);
  }
  report.oni_average = mean(averages);
  report.oni_spread = spread(averages);
  return report;
}

SnrReport ThermalAwareDesigner::analyze_snr(const ThermalReport& thermal) const {
  PH_REQUIRE(spec_.placement == OniPlacementMode::kRing,
             "SNR analysis requires a ring placement");
  const soc::RingCase rc =
      soc::ring_case(spec_.ring_case_id, spec_.package.die_x, spec_.package.die_y);
  PH_REQUIRE(thermal.onis.size() == rc.oni_count,
             "thermal report does not cover every ring ONI");

  noc::SnrModelConfig model = make_snr_model(spec_.tech);
  model.channels.channel_count = spec_.wdm_channels;

  // Lasers run hotter than the interface average; use the measured
  // laser-to-ring offset as the self-heating term.
  std::vector<double> offsets;
  std::vector<double> temps(rc.oni_count, 0.0);
  for (const OniThermalReport& r : thermal.onis) {
    PH_REQUIRE(static_cast<std::size_t>(r.oni) < rc.oni_count, "ONI index out of range");
    temps[static_cast<std::size_t>(r.oni)] = r.average;
    offsets.push_back(r.vcsel_average - r.average);
  }
  model.vcsel_self_heating = mean(offsets);

  const noc::RingTopology topology = noc::RingTopology::uniform(rc.oni_count, rc.perimeter);
  const std::size_t fanout = std::min(spec_.fanout, rc.oni_count - 1);
  const auto requests = noc::spread_requests(rc.oni_count, fanout);
  const noc::OrnocAssigner assigner(rc.oni_count, spec_.waveguides, spec_.wdm_channels);
  const auto comms = assigner.assign(requests);

  const noc::SnrAnalyzer analyzer(topology, model);
  SnrReport report;
  report.network = analyzer.analyze(comms, temps, spec_.p_vcsel);
  report.waveguide_length = rc.perimeter;
  report.oni_count = rc.oni_count;
  return report;
}

DesignReport ThermalAwareDesigner::run() const { return run(solve_global()); }

DesignReport ThermalAwareDesigner::run(const CoarseGlobalSolve& global) const {
  DesignReport report;
  report.spec = spec_;
  report.thermal = evaluate_thermal(global);
  if (spec_.placement == OniPlacementMode::kRing) {
    report.snr = analyze_snr(report.thermal);
  }
  return report;
}

std::vector<HeaterSweepPoint> explore_heater_ratios(const OnocDesignSpec& base,
                                                    const std::vector<double>& ratios) {
  PH_REQUIRE(!ratios.empty(), "no heater ratios to explore");
  std::vector<HeaterSweepPoint> sweep(ratios.size());

  // Representative interface: the one closest to the die centre.
  const ThermalAwareDesigner probe(base);
  const soc::SccSystem system = probe.build_system();
  PH_REQUIRE(!system.onis.empty(), "no ONI in the system");
  const Vec3 center{base.package.die_x / 2.0, base.package.die_y / 2.0, 0.0};
  int representative = system.onis.front().index;
  double best_distance = std::numeric_limits<double>::infinity();
  for (const soc::OniInstance& oni : system.onis) {
    Vec3 c = oni.footprint.center();
    c.z = 0.0;
    const double d = geometry::distance(c, center);
    if (d < best_distance) {
      best_distance = d;
      representative = oni.index;
    }
  }

  // Each ratio is an independent steady-state solve; results land at their
  // ratio's index, so order and values do not depend on the thread count.
  util::parallel_for(ratios.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      OnocDesignSpec spec = base;
      spec.heater_ratio = ratios[idx];
      const ThermalReport thermal = ThermalAwareDesigner(spec).evaluate_thermal(representative);
      HeaterSweepPoint point;
      point.heater_ratio = ratios[idx];
      point.p_heater = spec.p_heater();
      point.gradient = thermal.onis.front().gradient;
      point.oni_average = thermal.onis.front().average;
      sweep[idx] = point;
      PH_LOG_DEBUG << "heater ratio " << point.heater_ratio << ": gradient " << point.gradient
                   << " degC";
    }
  });
  return sweep;
}

const HeaterSweepPoint& best_heater_point(const std::vector<HeaterSweepPoint>& sweep) {
  PH_REQUIRE(!sweep.empty(), "empty heater sweep");
  const HeaterSweepPoint* best = &sweep.front();
  for (const HeaterSweepPoint& p : sweep) {
    if (p.gradient < best->gradient) {
      best = &p;
    }
  }
  return *best;
}

}  // namespace photherm::core
