/// \file two_level.hpp
/// \brief Two-level (global coarse / local fine) steady-state solver.
///
/// The paper meshes ONI regions at 5 um inside a multi-centimetre package —
/// done naively on a tensor grid, the fine ticks propagate across the whole
/// die. Instead we solve the full package at coarse resolution, then re-mesh
/// a window around each ONI at device resolution with Dirichlet shell
/// temperatures sampled from the coarse field. Heat spreading from a ~mW
/// device is local (hundreds of um), so a window a few hundred um beyond
/// the ONI reproduces the fine-grain IcTherm solution.
#pragma once

#include <memory>

#include "thermal/fvm.hpp"

namespace photherm::thermal {

/// Both passes solve with the default SteadyStateOptions.
struct TwoLevelOptions {
  mesh::MeshOptions global_mesh;
  mesh::MeshOptions local_mesh;
  /// Window margin added around the requested local box on x/y [m].
  double window_margin = 150e-6;
};

struct TwoLevelResult {
  ThermalField global_field;
  ThermalField local_field;
};

/// Solve `scene` globally, then re-solve the sub-box `local_box` (grown by
/// the margin on x/y, clamped to the domain) at fine resolution. Faces of
/// the local domain that coincide with the global domain reuse the global
/// BC; interior cut faces get Dirichlet shells from the global field.
TwoLevelResult solve_two_level(const geometry::Scene& scene, const BoundarySet& bcs,
                               const geometry::Box3& local_box, const TwoLevelOptions& options);

/// Local-refinement step only, reusing an existing global field (lets a
/// sweep share one global solve across many local solves).
ThermalField solve_local_window(const geometry::Scene& scene, const BoundarySet& bcs,
                                const ThermalField& global_field,
                                const geometry::Box3& local_box, const TwoLevelOptions& options);

}  // namespace photherm::thermal
