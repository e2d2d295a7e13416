#include "thermal/two_level.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace photherm::thermal {

using geometry::Box3;
using geometry::Scene;
using geometry::Vec3;

namespace {

/// True when `a` equals `b` within the axis snapping tolerance.
bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

BoundarySet local_boundaries(const BoundarySet& global_bcs, const Box3& global_domain,
                             const Box3& local_domain, const ThermalField& global_field) {
  BoundarySet local;
  auto shell = [&global_field](const Vec3& face_center) {
    return global_field.at(face_center);
  };
  struct FaceGeom {
    Face face;
    double local_coord;
    double global_coord;
  };
  const FaceGeom faces[6] = {
      {Face::kXMin, local_domain.lo.x, global_domain.lo.x},
      {Face::kXMax, local_domain.hi.x, global_domain.hi.x},
      {Face::kYMin, local_domain.lo.y, global_domain.lo.y},
      {Face::kYMax, local_domain.hi.y, global_domain.hi.y},
      {Face::kZMin, local_domain.lo.z, global_domain.lo.z},
      {Face::kZMax, local_domain.hi.z, global_domain.hi.z},
  };
  for (const FaceGeom& fg : faces) {
    if (near(fg.local_coord, fg.global_coord)) {
      local[fg.face] = global_bcs[fg.face];
    } else {
      local[fg.face] = FaceBc::dirichlet_field(shell);
    }
  }
  return local;
}

}  // namespace

ThermalField solve_local_window(const Scene& scene, const BoundarySet& bcs,
                                const ThermalField& global_field, const Box3& local_box,
                                const TwoLevelOptions& options) {
  const Box3 global_domain = scene.bounding_box();
  PH_REQUIRE(global_domain.intersects(local_box), "local box is outside the scene");

  Box3 window = local_box;
  window.lo.x = std::max(global_domain.lo.x, window.lo.x - options.window_margin);
  window.lo.y = std::max(global_domain.lo.y, window.lo.y - options.window_margin);
  window.hi.x = std::min(global_domain.hi.x, window.hi.x + options.window_margin);
  window.hi.y = std::min(global_domain.hi.y, window.hi.y + options.window_margin);
  window.lo.z = std::max(global_domain.lo.z, window.lo.z);
  window.hi.z = std::min(global_domain.hi.z, window.hi.z);

  const BoundarySet local_bcs = local_boundaries(bcs, global_domain, window, global_field);
  auto local_mesh = std::make_shared<const mesh::RectilinearMesh>(
      mesh::RectilinearMesh::build(scene, window, options.local_mesh));
  PH_LOG_DEBUG << "two-level local window: " << local_mesh->cell_count() << " cells";
  return solve_steady_state(std::move(local_mesh), local_bcs);
}

TwoLevelResult solve_two_level(const Scene& scene, const BoundarySet& bcs, const Box3& local_box,
                               const TwoLevelOptions& options) {
  auto global_mesh = std::make_shared<const mesh::RectilinearMesh>(
      mesh::RectilinearMesh::build(scene, options.global_mesh));
  ThermalField global_field = solve_steady_state(global_mesh, bcs);
  ThermalField local_field = solve_local_window(scene, bcs, global_field, local_box, options);
  return TwoLevelResult{std::move(global_field), std::move(local_field)};
}

}  // namespace photherm::thermal
