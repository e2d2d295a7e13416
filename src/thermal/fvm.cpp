#include "thermal/fvm.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace photherm::thermal {

using geometry::Vec3;
using mesh::RectilinearMesh;

namespace {

/// Conductance of the boundary half-cell path plus (for convection) the
/// film resistance. `d` is the full cell width normal to the face.
double boundary_conductance(const FaceBc& bc, double area, double d, double k) {
  switch (bc.kind) {
    case BcKind::kAdiabatic:
      return 0.0;
    case BcKind::kConvection:
      PH_REQUIRE(bc.h > 0.0, "convection BC requires h > 0");
      return area / (d / (2.0 * k) + 1.0 / bc.h);
    case BcKind::kDirichlet:
    case BcKind::kDirichletField:
      return area / (d / (2.0 * k));
  }
  return 0.0;
}

double boundary_wall_temperature(const FaceBc& bc, const Vec3& face_center) {
  switch (bc.kind) {
    case BcKind::kAdiabatic:
      return 0.0;
    case BcKind::kConvection:
      return bc.t_ambient;
    case BcKind::kDirichlet:
      return bc.t_wall;
    case BcKind::kDirichletField:
      PH_REQUIRE(static_cast<bool>(bc.wall_field), "DirichletField BC without a field callback");
      return bc.wall_field(face_center);
  }
  return 0.0;
}

/// Visits every boundary cell of `face` and reports its index, the face
/// area, the cell width normal to the face and the face centre.
template <typename Fn>
void for_each_boundary_cell(const RectilinearMesh& m, Face face, Fn&& fn) {
  const auto& gx = m.x();
  const auto& gy = m.y();
  const auto& gz = m.z();
  const int f = static_cast<int>(face);
  const int axis = f / 2;
  const bool at_max = (f % 2) == 1;

  auto visit = [&](std::size_t ix, std::size_t iy, std::size_t iz) {
    const std::size_t cell = m.index(ix, iy, iz);
    double area = 0.0;
    double width = 0.0;
    Vec3 c{gx.cell_center(ix), gy.cell_center(iy), gz.cell_center(iz)};
    switch (axis) {
      case 0:
        area = gy.cell_width(iy) * gz.cell_width(iz);
        width = gx.cell_width(ix);
        c.x = at_max ? gx.hi() : gx.lo();
        break;
      case 1:
        area = gx.cell_width(ix) * gz.cell_width(iz);
        width = gy.cell_width(iy);
        c.y = at_max ? gy.hi() : gy.lo();
        break;
      default:
        area = gx.cell_width(ix) * gy.cell_width(iy);
        width = gz.cell_width(iz);
        c.z = at_max ? gz.hi() : gz.lo();
        break;
    }
    fn(cell, area, width, c);
  };

  const std::size_t nx = m.nx();
  const std::size_t ny = m.ny();
  const std::size_t nz = m.nz();
  if (axis == 0) {
    const std::size_t ix = at_max ? nx - 1 : 0;
    for (std::size_t iz = 0; iz < nz; ++iz) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        visit(ix, iy, iz);
      }
    }
  } else if (axis == 1) {
    const std::size_t iy = at_max ? ny - 1 : 0;
    for (std::size_t iz = 0; iz < nz; ++iz) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        visit(ix, iy, iz);
      }
    }
  } else {
    const std::size_t iz = at_max ? nz - 1 : 0;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        visit(ix, iy, iz);
      }
    }
  }
}

bool has_fixing_bc(const BoundarySet& bcs) {
  for (const FaceBc& bc : bcs.faces) {
    if (bc.kind != BcKind::kAdiabatic) {
      return true;
    }
  }
  return false;
}

/// One implementation of the FVM face loop, shared by the CSR and stencil
/// assemblies so the two operators can never drift apart. The emitter
/// receives every internal face once (`pair(cell, nb, axis, g)` with the
/// neighbour toward +axis) and every non-adiabatic boundary face
/// (`boundary(cell, g)`); rhs is filled here.
template <typename Emitter>
void assemble_core(const RectilinearMesh& m, const BoundarySet& bcs, math::Vector& rhs,
                   Emitter&& emit) {
  PH_REQUIRE(has_fixing_bc(bcs),
             "all-adiabatic boundary set: the steady-state problem is singular");

  const std::size_t n = m.cell_count();
  const std::size_t nx = m.nx();
  const std::size_t ny = m.ny();
  const std::size_t nz = m.nz();
  const auto& lib = m.materials_library();

  rhs.assign(n, 0.0);

  auto conductivity = [&](std::size_t cell) { return lib.get(m.material(cell)).conductivity; };

  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t cell = m.index(ix, iy, iz);
        const double dx = m.x().cell_width(ix);
        const double dy = m.y().cell_width(iy);
        const double dz = m.z().cell_width(iz);
        const double k1 = conductivity(cell);

        rhs[cell] += m.power(cell);

        // Internal faces toward +x, +y, +z (each pair handled once).
        struct Neighbour {
          bool valid;
          std::size_t cell;
          double d1, d2, area;
        };
        const Neighbour neighbours[3] = {
            {ix + 1 < nx, ix + 1 < nx ? m.index(ix + 1, iy, iz) : 0, dx,
             ix + 1 < nx ? m.x().cell_width(ix + 1) : 0.0, dy * dz},
            {iy + 1 < ny, iy + 1 < ny ? m.index(ix, iy + 1, iz) : 0, dy,
             iy + 1 < ny ? m.y().cell_width(iy + 1) : 0.0, dx * dz},
            {iz + 1 < nz, iz + 1 < nz ? m.index(ix, iy, iz + 1) : 0, dz,
             iz + 1 < nz ? m.z().cell_width(iz + 1) : 0.0, dx * dy},
        };
        for (int axis = 0; axis < 3; ++axis) {
          const Neighbour& nb = neighbours[axis];
          if (!nb.valid) {
            continue;
          }
          const double k2 = conductivity(nb.cell);
          const double g = nb.area / (nb.d1 / (2.0 * k1) + nb.d2 / (2.0 * k2));
          emit.pair(cell, nb.cell, axis, g);
        }
      }
    }
  }

  // Boundary faces.
  for (int f = 0; f < 6; ++f) {
    const FaceBc& bc = bcs.faces[f];
    if (bc.kind == BcKind::kAdiabatic) {
      continue;
    }
    for_each_boundary_cell(m, static_cast<Face>(f),
                           [&](std::size_t cell, double area, double width, const Vec3& center) {
                             const double k = conductivity(cell);
                             const double g = boundary_conductance(bc, area, width, k);
                             emit.boundary(cell, g);
                             rhs[cell] += g * boundary_wall_temperature(bc, center);
                           });
  }
}

}  // namespace

DiscreteSystem assemble(const RectilinearMesh& m, const BoundarySet& bcs) {
  const std::size_t n = m.cell_count();
  struct CsrEmitter {
    math::CsrBuilder builder;
    void pair(std::size_t cell, std::size_t nb, int /*axis*/, double g) {
      builder.add(cell, cell, g);
      builder.add(nb, nb, g);
      builder.add(cell, nb, -g);
      builder.add(nb, cell, -g);
    }
    void boundary(std::size_t cell, double g) { builder.add(cell, cell, g); }
  } emit{math::CsrBuilder(n, n)};
  emit.builder.reserve(7 * n);
  math::Vector rhs;
  assemble_core(m, bcs, rhs, emit);
  return DiscreteSystem{emit.builder.build(), std::move(rhs)};
}

StencilSystem assemble_stencil(const RectilinearMesh& m, const BoundarySet& bcs) {
  struct StencilEmitter {
    math::StencilOperator7 op;
    void pair(std::size_t cell, std::size_t nb, int axis, double g) {
      op.diag()[cell] += g;
      op.diag()[nb] += g;
      // `nb` is the +axis neighbour of `cell`; the operator stores the
      // face's coupling once, on `cell`.
      math::Vector& upper = axis == 0 ? op.east() : axis == 1 ? op.north() : op.up();
      upper[cell] = -g;
    }
    void boundary(std::size_t cell, double g) { op.diag()[cell] += g; }
  } emit{math::StencilOperator7(m.nx(), m.ny(), m.nz())};
  math::Vector rhs;
  assemble_core(m, bcs, rhs, emit);
  return StencilSystem{std::move(emit.op), std::move(rhs)};
}

math::Vector heat_capacitance(const RectilinearMesh& m) {
  const auto& lib = m.materials_library();
  math::Vector capacitance(m.cell_count());
  for (std::size_t iz = 0; iz < m.nz(); ++iz) {
    const double dz = m.z().cell_width(iz);
    for (std::size_t iy = 0; iy < m.ny(); ++iy) {
      const double dy = m.y().cell_width(iy);
      for (std::size_t ix = 0; ix < m.nx(); ++ix) {
        const std::size_t cell = m.index(ix, iy, iz);
        const auto& mat = lib.get(m.material(cell));
        capacitance[cell] = mat.density * mat.specific_heat * m.x().cell_width(ix) * dy * dz;
      }
    }
  }
  return capacitance;
}

const char* to_string(OperatorKind kind) {
  return kind == OperatorKind::kStencil ? "stencil" : "csr";
}

namespace {

/// Steady solve on whichever operator representation the options ask for.
/// The warm-start contract of conjugate_gradient applies to `t` unchanged.
math::SolverResult steady_solve(const RectilinearMesh& m, const BoundarySet& bcs,
                                const SteadyStateOptions& options, math::Vector& t) {
  if (options.operator_kind == OperatorKind::kStencil) {
    StencilSystem system = assemble_stencil(m, bcs);
    return math::conjugate_gradient(system.op, system.rhs, t, options.solver);
  }
  DiscreteSystem system = assemble(m, bcs);
  return math::conjugate_gradient(system.matrix, system.rhs, t, options.solver);
}

}  // namespace

ThermalField solve_steady_state(std::shared_ptr<const RectilinearMesh> mesh,
                                const BoundarySet& bcs, const SteadyStateOptions& options) {
  PH_REQUIRE(mesh != nullptr, "solve_steady_state: null mesh");
  math::Vector t(mesh->cell_count(), 0.0);
  const auto result = steady_solve(*mesh, bcs, options, t);
  PH_LOG_DEBUG << "steady-state solve: " << math::to_string(result);
  return ThermalField(std::move(mesh), std::move(t));
}

ThermalField solve_steady_state(RectilinearMesh mesh, const BoundarySet& bcs,
                                const SteadyStateOptions& options) {
  return solve_steady_state(std::make_shared<const RectilinearMesh>(std::move(mesh)), bcs,
                            options);
}

double boundary_heat_flow(const ThermalField& field, const BoundarySet& bcs) {
  const RectilinearMesh& m = field.mesh();
  const auto& lib = m.materials_library();
  const auto& t = field.temperatures();
  double total = 0.0;
  for (int f = 0; f < 6; ++f) {
    const FaceBc& bc = bcs.faces[f];
    if (bc.kind == BcKind::kAdiabatic) {
      continue;
    }
    for_each_boundary_cell(m, static_cast<Face>(f),
                           [&](std::size_t cell, double area, double width, const Vec3& center) {
                             const double k = lib.get(m.material(cell)).conductivity;
                             const double g = boundary_conductance(bc, area, width, k);
                             total += g * (t[cell] - boundary_wall_temperature(bc, center));
                           });
  }
  return total;
}

}  // namespace photherm::thermal
