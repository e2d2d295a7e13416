#include "mesh/mesh.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/log.hpp"

namespace photherm::mesh {

using geometry::Block;
using geometry::Box3;
using geometry::Scene;
using geometry::Vec3;

namespace {

std::vector<double> axis_boundaries(const Scene& scene, int axis, const Box3& domain,
                                    double min_feature_xy) {
  std::vector<double> out;
  for (const Block& b : scene.blocks()) {
    if (!b.box.intersects(domain)) {
      continue;
    }
    if (axis != 2 && min_feature_xy > 0.0 &&
        (b.box.extent(0) < min_feature_xy || b.box.extent(1) < min_feature_xy)) {
      continue;  // micron-scale device: no ticks at coarse resolution
    }
    out.push_back(b.box.lo[axis]);
    out.push_back(b.box.hi[axis]);
  }
  return out;
}

std::vector<AxisRefinement> axis_refinements(const MeshOptions& options, int axis) {
  std::vector<AxisRefinement> out;
  for (const RefinementBox& r : options.refinements) {
    const double max_size = (axis == 2) ? r.max_cell_z : r.max_cell_xy;
    if (max_size > 0.0) {
      out.push_back({r.box.lo[axis], r.box.hi[axis], max_size});
    }
  }
  return out;
}

}  // namespace

RectilinearMesh::RectilinearMesh(AxisGrid x, AxisGrid y, AxisGrid z, geometry::MaterialLibrary lib)
    : x_(std::move(x)), y_(std::move(y)), z_(std::move(z)), materials_lib_(std::move(lib)) {}

RectilinearMesh RectilinearMesh::build(const Scene& scene, const MeshOptions& options) {
  return build(scene, scene.bounding_box(), options);
}

RectilinearMesh RectilinearMesh::build(const Scene& scene, const Box3& domain,
                                       const MeshOptions& options) {
  PH_REQUIRE(scene.size() > 0, "cannot mesh an empty scene");
  // A very large z bound means "layer faces only": every block face already
  // becomes a tick, which is exact for full-area layers.
  const double z_bound = options.default_max_cell_z > 0.0
                             ? options.default_max_cell_z
                             : domain.extent(2);

  const double feat = options.min_feature_size_xy;
  const AxisGrid gx(generate_ticks(domain.lo.x, domain.hi.x,
                                   axis_boundaries(scene, 0, domain, feat),
                                   options.default_max_cell_xy, axis_refinements(options, 0)));
  const AxisGrid gy(generate_ticks(domain.lo.y, domain.hi.y,
                                   axis_boundaries(scene, 1, domain, feat),
                                   options.default_max_cell_xy, axis_refinements(options, 1)));
  const AxisGrid gz(generate_ticks(domain.lo.z, domain.hi.z,
                                   axis_boundaries(scene, 2, domain, feat),
                                   z_bound, axis_refinements(options, 2)));

  RectilinearMesh mesh(gx, gy, gz, scene.materials());
  const std::size_t n = mesh.cell_count();
  PH_REQUIRE(n <= options.max_cells,
             "mesh exceeds the configured cell budget; coarsen the resolution");
  PH_LOG_DEBUG << "mesh: " << mesh.nx() << " x " << mesh.ny() << " x " << mesh.nz() << " = " << n
               << " cells";

  // Cells no block covers are air.
  const geometry::MaterialId background = mesh.materials_lib_.id_of("air");
  mesh.materials_.assign(n, background.index);
  mesh.power_.assign(n, 0.0);

  // Paint materials in block order. Each block only touches the cells it
  // overlaps; since ticks include all block faces, a cell is either fully
  // inside or fully outside a block (up to snapping tolerance), so testing
  // the cell centre is exact.
  for (const Block& b : scene.blocks()) {
    if (!b.box.intersects(domain)) {
      continue;
    }
    const auto [x0, x1] = mesh.x_.cell_range(b.box.lo.x, b.box.hi.x);
    const auto [y0, y1] = mesh.y_.cell_range(b.box.lo.y, b.box.hi.y);
    const auto [z0, z1] = mesh.z_.cell_range(b.box.lo.z, b.box.hi.z);
    for (std::size_t iz = z0; iz < z1; ++iz) {
      for (std::size_t iy = y0; iy < y1; ++iy) {
        for (std::size_t ix = x0; ix < x1; ++ix) {
          const Vec3 c{mesh.x_.cell_center(ix), mesh.y_.cell_center(iy),
                       mesh.z_.cell_center(iz)};
          if (b.box.contains(c)) {
            mesh.materials_[mesh.index(ix, iy, iz)] = b.material.index;
          }
        }
      }
    }
  }

  // Deposit power by overlap volume so sources clipped by the domain edge
  // inject only their contained fraction.
  for (const Block& b : scene.blocks()) {
    if (b.power <= 0.0 || !b.box.intersects(domain)) {
      continue;
    }
    const double density = b.power_density();
    const auto [x0, x1] = mesh.x_.cell_range(b.box.lo.x, b.box.hi.x);
    const auto [y0, y1] = mesh.y_.cell_range(b.box.lo.y, b.box.hi.y);
    const auto [z0, z1] = mesh.z_.cell_range(b.box.lo.z, b.box.hi.z);
    for (std::size_t iz = z0; iz < z1; ++iz) {
      for (std::size_t iy = y0; iy < y1; ++iy) {
        for (std::size_t ix = x0; ix < x1; ++ix) {
          const double overlap = b.box.overlap_volume(mesh.cell_box(ix, iy, iz));
          if (overlap > 0.0) {
            mesh.power_[mesh.index(ix, iy, iz)] += density * overlap;
          }
        }
      }
    }
  }
  return mesh;
}

std::size_t RectilinearMesh::cell_at(const Vec3& p) const {
  return index(x_.find_cell(p.x), y_.find_cell(p.y), z_.find_cell(p.z));
}

Box3 RectilinearMesh::cell_box(std::size_t ix, std::size_t iy, std::size_t iz) const {
  return Box3{{x_.cell_lo(ix), y_.cell_lo(iy), z_.cell_lo(iz)},
              {x_.cell_hi(ix), y_.cell_hi(iy), z_.cell_hi(iz)}};
}

double RectilinearMesh::cell_volume(std::size_t ix, std::size_t iy, std::size_t iz) const {
  return x_.cell_width(ix) * y_.cell_width(iy) * z_.cell_width(iz);
}

double RectilinearMesh::total_power() const {
  double total = 0.0;
  for (double p : power_) {
    total += p;
  }
  return total;
}

std::vector<std::size_t> RectilinearMesh::cells_in(const Box3& box) const {
  std::vector<std::size_t> out;
  const auto [x0, x1] = x_.cell_range(box.lo.x, box.hi.x);
  const auto [y0, y1] = y_.cell_range(box.lo.y, box.hi.y);
  const auto [z0, z1] = z_.cell_range(box.lo.z, box.hi.z);
  for (std::size_t iz = z0; iz < z1; ++iz) {
    for (std::size_t iy = y0; iy < y1; ++iy) {
      for (std::size_t ix = x0; ix < x1; ++ix) {
        out.push_back(index(ix, iy, iz));
      }
    }
  }
  return out;
}

}  // namespace photherm::mesh
