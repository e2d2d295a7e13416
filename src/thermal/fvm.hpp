/// \file fvm.hpp
/// \brief Finite-volume heat-conduction solver (the IcTherm substitute,
/// paper Sec. IV-B). Assembles the 7-point conduction operator on a
/// rectilinear mesh with harmonic-mean face conductances and solves the
/// steady-state system with preconditioned CG.
#pragma once

#include <memory>

#include "math/csr_matrix.hpp"
#include "math/solvers.hpp"
#include "math/stencil_operator.hpp"
#include "mesh/mesh.hpp"
#include "thermal/bc.hpp"
#include "thermal/thermal_map.hpp"

namespace photherm::thermal {

/// Discrete steady conduction problem: A T = b.
struct DiscreteSystem {
  math::CsrMatrix matrix;
  math::Vector rhs;
};

/// The same discrete problem with the operator in matrix-free 7-point
/// stencil form (see stencil_operator.hpp): identical coefficients, no CSR
/// indirection in the SpMV.
struct StencilSystem {
  math::StencilOperator7 op;
  math::Vector rhs;
};

/// Assemble the steady-state conduction system for `mesh` under `bcs`.
/// Face conductance between two cells is the series combination of the
/// half-cell resistances: G = A / (d1/(2 k1) + d2/(2 k2)).
DiscreteSystem assemble(const mesh::RectilinearMesh& mesh, const BoundarySet& bcs);

/// Assemble the same system straight into stencil form. Runs the identical
/// face loop as assemble() (one shared implementation), so the operator
/// matches the CSR one coefficient for coefficient; only the floating-point
/// summation order of coincident contributions may differ (CsrBuilder sums
/// duplicates in unspecified order), which keeps the two within a few ULP.
StencilSystem assemble_stencil(const mesh::RectilinearMesh& mesh, const BoundarySet& bcs);

/// Heat capacitance per cell, C = rho * cp * V [J/K]. Only transient
/// stepping reads it, so the steady assemblies do not build it.
math::Vector heat_capacitance(const mesh::RectilinearMesh& mesh);

/// Which operator representation the steady solves iterate on.
enum class OperatorKind {
  kCsr,      ///< explicit CSR sparsity
  kStencil,  ///< matrix-free 7-point stencil
};

const char* to_string(OperatorKind kind);

struct SteadyStateOptions {
  math::SolverOptions solver;
  /// The stencil skips the CSR triplet sort in assembly and pairs with the
  /// stencil-native ILU(0) (the default preconditioner).
  OperatorKind operator_kind = OperatorKind::kStencil;
};

/// Solve the steady-state problem. Throws SolverError if CG fails (an
/// all-adiabatic boundary set gives a singular system and is reported as a
/// SpecError before solving).
ThermalField solve_steady_state(std::shared_ptr<const mesh::RectilinearMesh> mesh,
                                const BoundarySet& bcs, const SteadyStateOptions& options = {});

/// Convenience overload taking the mesh by value.
ThermalField solve_steady_state(mesh::RectilinearMesh mesh, const BoundarySet& bcs,
                                const SteadyStateOptions& options = {});

/// Total heat leaving the domain through boundary faces for a given field
/// [W]. At steady state this equals the injected power (energy balance);
/// the validation tests assert it.
double boundary_heat_flow(const ThermalField& field, const BoundarySet& bcs);

}  // namespace photherm::thermal
