#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "math/preconditioner.hpp"
#include "math/solvers.hpp"
#include "util/error.hpp"

namespace e2ebench {

using namespace photherm;

double energy_balance_error(const thermal::ThermalField& field, const thermal::BoundarySet& bcs) {
  const double injected = field.mesh().total_power();
  return std::abs(thermal::boundary_heat_flow(field, bcs) - injected) / injected;
}

std::size_t global_cells(const core::ThermalAwareDesigner& d) {
  return mesh::RectilinearMesh::build(d.build_system().scene, d.global_mesh_options())
      .cell_count();
}

namespace {

math::SolverResult precondition_and_solve(Tracer& tracer, const math::LinearOperator& a,
                                          const math::Vector& b, math::Vector& x,
                                          const math::SolverOptions& options) {
  std::unique_ptr<math::Preconditioner> precond;
  {
    auto span = tracer.span("math.precond_build");
    precond = math::make_preconditioner(options.preconditioner, a, options.chebyshev);
  }
  auto span = tracer.span("math.cg");
  return math::conjugate_gradient(a, b, x, *precond, options);
}

}  // namespace

thermal::ThermalField solve_layers(Tracer& tracer,
                                   std::shared_ptr<const mesh::RectilinearMesh> mesh,
                                   const thermal::BoundarySet& bcs, WalkCounts& counts) {
  const thermal::SteadyStateOptions options;  // what the pipeline solves with
  math::Vector t(mesh->cell_count(), 0.0);
  math::SolverResult result;
  if (options.operator_kind == thermal::OperatorKind::kStencil) {
    thermal::StencilSystem system = [&] {
      auto span = tracer.span("thermal.assemble");
      return thermal::assemble_stencil(*mesh, bcs);
    }();
    result = precondition_and_solve(tracer, system.op, system.rhs, t, options.solver);
  } else {
    thermal::DiscreteSystem system = [&] {
      auto span = tracer.span("thermal.assemble");
      return thermal::assemble(*mesh, bcs);
    }();
    result = precondition_and_solve(tracer, system.matrix, system.rhs, t, options.solver);
  }
  PH_REQUIRE(result.converged, "walk: CG did not converge");
  counts.cg_solves += 1;
  counts.cg_iterations += result.iterations;
  return thermal::ThermalField(std::move(mesh), std::move(t));
}

GlobalLayers solve_global_layers(Tracer& tracer, const core::ThermalAwareDesigner& d,
                                 WalkCounts& counts) {
  std::optional<soc::SccSystem> system;
  thermal::BoundarySet bcs;
  std::shared_ptr<const mesh::RectilinearMesh> mesh;
  {
    auto span = tracer.span("core.build_system");
    system.emplace(d.build_system());
    bcs = d.boundary_conditions();
  }
  {
    auto span = tracer.span("mesh.build");
    mesh = std::make_shared<const mesh::RectilinearMesh>(
        mesh::RectilinearMesh::build(system->scene, d.global_mesh_options()));
  }
  thermal::ThermalField field = solve_layers(tracer, std::move(mesh), bcs, counts);
  return {std::move(*system), std::move(bcs), std::move(field)};
}

OniWindow oni_window(const core::OnocDesignSpec& spec, const soc::SccSystem& system,
                     const soc::OniInstance& oni) {
  using geometry::Box3;
  // ThermalAwareDesigner's local mesh options plus the ONI refinement box.
  OniWindow w;
  w.options.default_max_cell_xy = 25e-6;
  w.options.min_feature_size_xy = 0.0;
  mesh::RefinementBox refine;
  refine.box = Box3::make({oni.footprint.lo.x, oni.footprint.lo.y, system.z.beol_lo},
                          {oni.footprint.hi.x, oni.footprint.hi.y, system.z.optical_hi + 5e-6});
  refine.max_cell_xy = spec.oni_cell_xy;
  refine.max_cell_z = spec.oni_cell_z;
  w.options.refinements.push_back(refine);

  // solve_local_window's growth of the footprint column by the margin,
  // clamped to the package.
  const Box3 domain = system.scene.bounding_box();
  Box3 box = Box3::make({oni.footprint.lo.x, oni.footprint.lo.y, domain.lo.z},
                        {oni.footprint.hi.x, oni.footprint.hi.y, domain.hi.z});
  box.lo.x = std::max(domain.lo.x, box.lo.x - spec.window_margin);
  box.lo.y = std::max(domain.lo.y, box.lo.y - spec.window_margin);
  box.hi.x = std::min(domain.hi.x, box.hi.x + spec.window_margin);
  box.hi.y = std::min(domain.hi.y, box.hi.y + spec.window_margin);
  box.lo.z = std::max(domain.lo.z, box.lo.z);
  box.hi.z = std::min(domain.hi.z, box.hi.z);
  w.box = box;
  return w;
}

thermal::BoundarySet window_bcs(const thermal::BoundarySet& package,
                                const geometry::Box3& domain, const geometry::Box3& window,
                                const thermal::ThermalField& global_field) {
  using thermal::Face;
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-9; };
  const auto shell = [&global_field](const geometry::Vec3& p) { return global_field.at(p); };
  const struct {
    Face face;
    double local, global;
  } faces[6] = {
      {Face::kXMin, window.lo.x, domain.lo.x}, {Face::kXMax, window.hi.x, domain.hi.x},
      {Face::kYMin, window.lo.y, domain.lo.y}, {Face::kYMax, window.hi.y, domain.hi.y},
      {Face::kZMin, window.lo.z, domain.lo.z}, {Face::kZMax, window.hi.z, domain.hi.z},
  };
  thermal::BoundarySet local;
  for (const auto& f : faces) {
    local[f.face] = near(f.local, f.global) ? package[f.face]
                                            : thermal::FaceBc::dirichlet_field(shell);
  }
  return local;
}

core::OniThermalReport oni_report(const thermal::ThermalField& field,
                                  const soc::SccSystem& system, const soc::OniInstance& oni) {
  const auto vcsels = system.scene.find(geometry::BlockKind::kVcsel, oni.index);
  const auto rings = system.scene.find(geometry::BlockKind::kMicroRing, oni.index);
  const auto average = [&field](const std::vector<const geometry::Block*>& blocks) {
    double acc = 0.0;
    for (const geometry::Block* b : blocks) {
      acc += field.average_in(b->box);
    }
    return acc / static_cast<double>(blocks.size());
  };
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto* list : {&vcsels, &rings}) {
    for (const geometry::Block* b : *list) {
      const double t = field.average_in(b->box);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  }
  core::OniThermalReport r;
  r.oni = oni.index;
  r.average = field.average_in(oni.footprint);
  r.gradient = hi - lo;
  r.peak_spread = field.spread_in(oni.footprint);
  r.vcsel_average = average(vcsels);
  r.mr_average = average(rings);
  r.vcsel_to_mr = r.vcsel_average - r.mr_average;
  return r;
}

geometry::Box3 heat_box(const core::OnocDesignSpec& spec, const soc::SccSystem& system) {
  return geometry::Box3::make({0.0, 0.0, system.z.heat_lo},
                              {spec.package.die_x, spec.package.die_y, system.z.heat_hi});
}

std::vector<double> report_values(const core::DesignReport& report) {
  const core::ThermalReport& t = report.thermal;
  std::vector<double> v{t.chip_average, t.max_gradient, t.oni_average, t.oni_spread};
  for (const core::OniThermalReport& r : t.onis) {
    v.insert(v.end(), {static_cast<double>(r.oni), r.average, r.gradient, r.peak_spread,
                       r.vcsel_average, r.mr_average, r.vcsel_to_mr});
  }
  if (report.snr) {
    const noc::NetworkResult& n = report.snr->network;
    v.insert(v.end(), {n.worst_snr_db, n.min_signal_power, n.max_crosstalk_power,
                       static_cast<double>(n.undetectable_count)});
    for (const noc::CommResult& c : n.comms) {
      v.insert(v.end(), {c.op_vcsel, c.op_net, c.signal_power, c.crosstalk_power, c.snr_db,
                         c.detectable ? 1.0 : 0.0});
    }
  }
  return v;
}

}  // namespace e2ebench
