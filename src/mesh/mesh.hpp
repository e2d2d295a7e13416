/// \file mesh.hpp
/// \brief Tensor-product rectilinear mesh built from a geometry Scene:
/// per-cell material id and injected power. This is the discretisation the
/// finite-volume solver consumes (paper Fig. 4).
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/block.hpp"
#include "mesh/axis.hpp"

namespace photherm::mesh {

/// Box-shaped refinement request: cells inside `box` are at most
/// `max_cell` wide on the given axes (0 disables an axis).
struct RefinementBox {
  geometry::Box3 box;
  double max_cell_xy;  ///< bound on x and y cell sizes [m]
  double max_cell_z;   ///< bound on z cell sizes [m]; 0 = no bound
};

struct MeshOptions {
  double default_max_cell_xy = 500e-6;  ///< package-scale resolution
  double default_max_cell_z = 0.0;      ///< 0 = layers only (block faces)
  std::vector<RefinementBox> refinements;
  std::size_t max_cells = 40'000'000;   ///< safety limit

  /// Blocks narrower than this on x/y contribute no x/y mesh ticks (their
  /// power is still deposited by overlap volume). Lets a coarse global
  /// solve skip micron-scale device geometry while a fine local window
  /// (min_feature_size_xy = 0) resolves it — the two-level scheme.
  double min_feature_size_xy = 0.0;
};

/// Immutable mesh. Cell (ix, iy, iz) linearises as
/// index = (iz * ny + iy) * nx + ix.
class RectilinearMesh {
 public:
  /// Mesh the scene's bounding box.
  static RectilinearMesh build(const geometry::Scene& scene, const MeshOptions& options);

  /// Mesh an explicit domain (used by the two-level solver to mesh an ONI
  /// subdomain of a larger scene).
  static RectilinearMesh build(const geometry::Scene& scene, const geometry::Box3& domain,
                               const MeshOptions& options);

  const AxisGrid& x() const { return x_; }
  const AxisGrid& y() const { return y_; }
  const AxisGrid& z() const { return z_; }

  std::size_t nx() const { return x_.cell_count(); }
  std::size_t ny() const { return y_.cell_count(); }
  std::size_t nz() const { return z_.cell_count(); }
  std::size_t cell_count() const { return nx() * ny() * nz(); }

  std::size_t index(std::size_t ix, std::size_t iy, std::size_t iz) const {
    return (iz * ny() + iy) * nx() + ix;
  }

  /// Cell containing a point (clamped to the domain).
  std::size_t cell_at(const geometry::Vec3& p) const;

  geometry::Box3 cell_box(std::size_t ix, std::size_t iy, std::size_t iz) const;
  double cell_volume(std::size_t ix, std::size_t iy, std::size_t iz) const;

  /// Material of a cell.
  geometry::MaterialId material(std::size_t cell) const { return {materials_[cell]}; }

  /// Power injected into a cell [W].
  double power(std::size_t cell) const { return power_[cell]; }

  /// Sum of per-cell powers; equals the scene power clipped to the domain.
  double total_power() const;

  /// Cells overlapping `box` (indices). Used for region averages.
  std::vector<std::size_t> cells_in(const geometry::Box3& box) const;

  const geometry::MaterialLibrary& materials_library() const { return materials_lib_; }

 private:
  RectilinearMesh(AxisGrid x, AxisGrid y, AxisGrid z, geometry::MaterialLibrary lib);

  AxisGrid x_, y_, z_;
  geometry::MaterialLibrary materials_lib_;
  std::vector<std::uint16_t> materials_;
  std::vector<double> power_;
};

}  // namespace photherm::mesh
