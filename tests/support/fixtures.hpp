/// \file fixtures.hpp
/// \brief Shared scene/spec builders and the thread-budget guard for the
/// test suites. Keeps the "uniform slab + block heater" and "coarse
/// OnocDesignSpec" setups in one place instead of re-declaring them in
/// every test file.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "core/design_space.hpp"
#include "geometry/stack.hpp"
#include "math/stencil_operator.hpp"
#include "mesh/mesh.hpp"
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

/// Build a shared-ownership mesh, as consumed by the transient/nonlinear
/// solvers and ThermalField.
inline std::shared_ptr<const mesh::RectilinearMesh> shared_mesh(
    const geometry::Scene& scene, const mesh::MeshOptions& options) {
  return std::make_shared<const mesh::RectilinearMesh>(
      mesh::RectilinearMesh::build(scene, options));
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
