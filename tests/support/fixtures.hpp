/// \file fixtures.hpp
/// \brief Shared scene/spec builders and the thread-budget guard for the
/// test suites. Keeps the "uniform slab + block heater" and "coarse
/// OnocDesignSpec" setups in one place instead of re-declaring them in
/// every test file.
#pragma once

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/design_space.hpp"
#include "geometry/stack.hpp"
#include "math/stencil_operator.hpp"
#include "mesh/mesh.hpp"
#include "thermal/bc.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace photherm::fixtures {

/// Uniform single-material slab, footprint `a` x `a`, thickness `t`.
inline geometry::Scene uniform_slab(double a, double t,
                                    const std::string& material = "silicon") {
  geometry::Scene scene;
  geometry::LayerStackBuilder stack(a, a);
  stack.add_layer({"die", material, t});
  stack.emit(scene);
  return scene;
}

/// Add a rectangular block heat source dissipating `power` watts.
inline void add_heater(geometry::Scene& scene, const geometry::Box3& box,
                       double power, const std::string& material = "silicon",
                       const std::string& name = "heater") {
  geometry::Block heat;
  heat.name = name;
  heat.box = box;
  heat.material = scene.materials().id_of(material);
  heat.power = power;
  scene.add(std::move(heat));
}

/// Mesh options with uniform cell-size caps. Pass `cell_z <= 0` to keep the
/// default vertical resolution (one cell per layer).
inline mesh::MeshOptions uniform_mesh_options(double cell_xy,
                                              double cell_z = 0.0) {
  mesh::MeshOptions options;
  options.default_max_cell_xy = cell_xy;
  if (cell_z > 0.0) {
    options.default_max_cell_z = cell_z;
  }
  return options;
}

/// Build a shared-ownership mesh, as consumed by the transient solver and
/// ThermalField.
inline std::shared_ptr<const mesh::RectilinearMesh> shared_mesh(
    const geometry::Scene& scene, const mesh::MeshOptions& options) {
  return std::make_shared<const mesh::RectilinearMesh>(
      mesh::RectilinearMesh::build(scene, options));
}

/// 1 mm x 1 mm x 200 um silicon slab with an off-centre 0.5 W heater
/// block: the block's edges insert mesh ticks, so the x/y axes are
/// genuinely non-uniform; a `cell_z` cap splits the slab into z layers.
inline mesh::RectilinearMesh heated_mesh(double cell_xy, double cell_z) {
  const double a = 1e-3;
  const double t = 200e-6;
  geometry::Scene scene = uniform_slab(a, t);
  add_heater(scene, geometry::Box3::make({0.3e-3, 0.45e-3, 0.0}, {0.75e-3, 0.8e-3, t}), 0.5);
  return mesh::RectilinearMesh::build(scene, uniform_mesh_options(cell_xy, cell_z));
}

/// Every face non-adiabatic, mixing all three fixing BC kinds.
inline thermal::BoundarySet all_faces_bcs() {
  using thermal::Face;
  using thermal::FaceBc;
  thermal::BoundarySet bcs;
  bcs[Face::kXMin] = FaceBc::convection(500.0, 30.0);
  bcs[Face::kXMax] = FaceBc::dirichlet(45.0);
  bcs[Face::kYMin] =
      FaceBc::dirichlet_field([](const geometry::Vec3& p) { return 25.0 + 1e4 * p.x; });
  bcs[Face::kYMax] = FaceBc::convection(2e3, 22.0);
  bcs[Face::kZMin] = FaceBc::convection(1e3, 25.0);
  bcs[Face::kZMax] = FaceBc::dirichlet(60.0);
  return bcs;
}

/// Coarse ONoC design spec for integration-speed tests: small ring case,
/// 3 mm global cells, 20 um ONI cells. Individual suites override fields
/// (chip power, placement, activity, ...) as needed.
inline core::OnocDesignSpec coarse_onoc_spec() {
  core::OnocDesignSpec spec;
  spec.placement = core::OniPlacementMode::kRing;
  spec.ring_case_id = 1;
  spec.chip_power = 24.0;
  spec.global_cell_xy = 3e-3;
  spec.oni_cell_xy = 20e-6;
  spec.oni_cell_z = 2e-6;
  return spec;
}

/// Random SPD M-matrix on an nx x ny x nz grid: symmetric negative
/// couplings (each face's stored once, on the cell below it), zero toward
/// missing neighbours, and a diagonal that dominates its row by 0.1.
inline math::StencilOperator7 diagonally_dominant_stencil(std::size_t nx, std::size_t ny,
                                                          std::size_t nz, std::uint64_t seed) {
  math::StencilOperator7 op(nx, ny, nz);
  Rng rng(seed);
  const std::size_t sz = nx * ny;
  for (std::size_t i = 0; i < op.rows(); ++i) {
    if (i % nx != 0) {
      op.east()[i - 1] = -rng.uniform(0.5, 1.5);
    }
    if ((i / nx) % ny != 0) {
      op.north()[i - nx] = -rng.uniform(0.5, 1.5);
    }
    if (i >= sz) {
      op.up()[i - sz] = -rng.uniform(0.5, 1.5);
    }
  }
  // Row i's west/south/down couplings are east[i-1], north[i-nx] and
  // up[i-sz] (zero before the first row, y-row and plane).
  const auto lower = [](const math::Vector& upper, std::size_t i, std::size_t stride) {
    return i >= stride ? upper[i - stride] : 0.0;
  };
  for (std::size_t i = 0; i < op.rows(); ++i) {
    op.diag()[i] = 0.1 - lower(op.east(), i, 1) - op.east()[i] - lower(op.north(), i, nx) -
                   op.north()[i] - lower(op.up(), i, sz) - op.up()[i];
  }
  return op;
}

/// Reference solution of A x = b: the dense matrix is read off A applied
/// to each unit vector, then eliminated with partial pivoting. Shares no
/// code with CG, CSR or any preconditioner; O(n^3), so small systems only.
inline math::Vector dense_solve(const math::LinearOperator& a, const math::Vector& b) {
  const std::size_t n = a.rows();
  std::vector<math::Vector> m(n, math::Vector(n + 1, 0.0));  // rows of [A | b]
  math::Vector unit(n, 0.0);
  math::Vector column;
  for (std::size_t j = 0; j < n; ++j) {
    unit[j] = 1.0;
    a.apply(unit, column);
    unit[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      m[i][j] = column[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    m[i][n] = b[i];
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      pivot = std::abs(m[i][k]) > std::abs(m[pivot][k]) ? i : pivot;
    }
    std::swap(m[k], m[pivot]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = m[i][k] / m[k][k];
      for (std::size_t j = k; j <= n; ++j) {
        m[i][j] -= factor * m[k][j];
      }
    }
  }
  math::Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = m[i][n];
    for (std::size_t j = i + 1; j < n; ++j) {
      acc -= m[i][j] * x[j];
    }
    x[i] = acc / m[i][i];
  }
  return x;
}

/// True when the two vectors hold the same doubles bit for bit (unlike ==,
/// this tells -0.0 from +0.0 and matches NaN payloads).
inline bool same_bytes(const math::Vector& a, const math::Vector& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs one scope under a thread budget of `threads`
/// (util::set_concurrency) and restores the environment/hardware default
/// on exit, so a test can run its workload "at N threads" without leaking
/// the budget into what follows.
class ScopedConcurrency {
 public:
  explicit ScopedConcurrency(std::size_t threads) { util::set_concurrency(threads); }
  ~ScopedConcurrency() { util::set_concurrency(0); }
  ScopedConcurrency(const ScopedConcurrency&) = delete;
  ScopedConcurrency& operator=(const ScopedConcurrency&) = delete;
};

}  // namespace photherm::fixtures
