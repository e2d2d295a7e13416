/// \file layers.hpp
/// \brief The outside-in layer walk: the calls the two-level steady
/// pipeline makes, issued one layer at a time from the benchmark so each
/// gets its own span. Everything here mirrors what
/// thermal::solve_steady_state, thermal::solve_local_window and
/// core::ThermalAwareDesigner do internally; the traced run fails when the
/// walk's outputs differ from the pipeline's in a single bit.
#pragma once

#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/methodology.hpp"
#include "thermal/fvm.hpp"

namespace e2ebench {

/// Relative energy-balance tolerance on a steady field: heat leaving
/// through the boundary (thermal::boundary_heat_flow) against the power the
/// mesh injects. The solves stop at a relative residual of 1e-9 (1e-10 with
/// 10x slack); the balance holds far tighter than this bound.
inline constexpr double kEnergyTolerance = 1e-6;

/// |outflow - injected| / injected of a steady field.
double energy_balance_error(const photherm::thermal::ThermalField& field,
                            const photherm::thermal::BoundarySet& bcs);

/// Cells of a design's global mesh: builds its scene and meshes it, the
/// work the pipeline does before its first solve.
std::size_t global_cells(const photherm::core::ThermalAwareDesigner& d);

/// Steady solve walked layer by layer with the pipeline's solver options:
/// thermal.assemble -> math.precond_build -> math.cg.
photherm::thermal::ThermalField solve_layers(
    Tracer& tracer, std::shared_ptr<const photherm::mesh::RectilinearMesh> mesh,
    const photherm::thermal::BoundarySet& bcs, WalkCounts& counts);

/// The coarse global pass walked layer by layer, as
/// ThermalAwareDesigner::solve_global runs it: core.build_system ->
/// mesh.build -> solve_layers.
struct GlobalLayers {
  photherm::soc::SccSystem system;
  photherm::thermal::BoundarySet bcs;
  photherm::thermal::ThermalField field;
};

GlobalLayers solve_global_layers(Tracer& tracer, const photherm::core::ThermalAwareDesigner& d,
                                 WalkCounts& counts);

/// The fine window the pipeline meshes around one ONI.
struct OniWindow {
  photherm::geometry::Box3 box;
  photherm::mesh::MeshOptions options;
};

OniWindow oni_window(const photherm::core::OnocDesignSpec& spec,
                     const photherm::soc::SccSystem& system,
                     const photherm::soc::OniInstance& oni);

/// Window boundary conditions: faces on the package boundary keep the
/// package BC, cut faces get FaceBc::dirichlet_field sampled from the
/// global field (which must outlive the returned set).
photherm::thermal::BoundarySet window_bcs(const photherm::thermal::BoundarySet& package,
                                          const photherm::geometry::Box3& domain,
                                          const photherm::geometry::Box3& window,
                                          const photherm::thermal::ThermalField& global_field);

/// Per-ONI thermal report from a solved window (average_in/spread_in).
photherm::core::OniThermalReport oni_report(const photherm::thermal::ThermalField& window_field,
                                            const photherm::soc::SccSystem& system,
                                            const photherm::soc::OniInstance& oni);

/// The heat-source layer box the chip average is taken over.
photherm::geometry::Box3 heat_box(const photherm::core::OnocDesignSpec& spec,
                                  const photherm::soc::SccSystem& system);

/// Every number of a design report, in a fixed order, for bitwise
/// comparison.
std::vector<double> report_values(const photherm::core::DesignReport& report);

}  // namespace e2ebench
