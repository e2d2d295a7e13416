/// Timing benchmarks (google-benchmark) of the numerical core: sparse
/// matrix-vector products (CSR and matrix-free stencil, and the stencil
/// product fused with CG's p'Ap), the stencil ILU(0) apply, the
/// preconditioned solvers swept over preconditioner kind x operator kind,
/// assembly, and the transient hot path: repeated warm-started solves
/// against a fixed stepping operator, where the preconditioner caching and
/// the Chebyshev rebuild economics actually show up. Every solve runs
/// `math::SolverOptions{}` apart from the preconditioner a sweep picks, so
/// the exactly gated `iters` counters are what a workload's solve takes.
#include <benchmark/benchmark.h>

#include <string>

#include "geometry/stack.hpp"
#include "math/preconditioner.hpp"
#include "math/solvers.hpp"
#include "math/stencil_operator.hpp"
#include "thermal/fvm.hpp"
#include "util/thread_pool.hpp"

using namespace photherm;

namespace {

/// A silicon slab with a hotspot, meshed at `cell` resolution; both operator
/// forms assembled from the same mesh, and its heat capacitance.
struct BenchSystems {
  thermal::DiscreteSystem csr;
  thermal::StencilSystem stencil;
  math::Vector capacitance;
  std::size_t cells = 0;
};

BenchSystems make_systems(double cell) {
  const double a = 2e-3;
  geometry::Scene scene;
  geometry::LayerStackBuilder stack(a, a);
  stack.add_layer({"die", "silicon", 300e-6});
  stack.emit(scene);
  geometry::Block heat;
  heat.name = "hotspot";
  heat.box = geometry::Box3::make({a / 4, a / 4, 0}, {a / 2, a / 2, 100e-6});
  heat.material = scene.materials().id_of("silicon");
  heat.power = 1.0;
  scene.add(std::move(heat));
  mesh::MeshOptions options;
  options.default_max_cell_xy = cell;
  options.default_max_cell_z = 50e-6;
  const auto mesh = mesh::RectilinearMesh::build(scene, options);
  thermal::BoundarySet bcs;
  bcs[thermal::Face::kZMax] = thermal::FaceBc::convection(5e3, 30.0);
  BenchSystems out{thermal::assemble(mesh, bcs), thermal::assemble_stencil(mesh, bcs),
                   thermal::heat_capacitance(mesh), mesh.cell_count()};
  return out;
}

void BM_SpMV(benchmark::State& state) {
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  math::Vector x(systems.csr.matrix.cols(), 1.0);
  math::Vector y(systems.csr.matrix.rows());
  for (auto _ : state) {
    systems.csr.matrix.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * systems.csr.matrix.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(16)->Arg(32)->Arg(64);

void BM_SpMVStencil(benchmark::State& state) {
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  math::Vector x(systems.stencil.op.cols(), 1.0);
  math::Vector y(systems.stencil.op.rows());
  for (auto _ : state) {
    systems.stencil.op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["cells"] = static_cast<double>(systems.cells);
  // Same nominal work as the CSR product on the same mesh.
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * systems.csr.matrix.nnz()));
}
BENCHMARK(BM_SpMVStencil)->Arg(16)->Arg(32)->Arg(64);

/// The stencil SpMV fused with CG's p'Ap reduction (apply_dot), on the
/// same meshes as BM_SpMVStencil.
void BM_StencilApplyDot(benchmark::State& state) {
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  math::Vector x(systems.stencil.op.cols(), 1.0);
  math::Vector y(systems.stencil.op.rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(systems.stencil.op.apply_dot(x, y));
  }
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * systems.csr.matrix.nnz()));
}
BENCHMARK(BM_StencilApplyDot)->Arg(16)->Arg(32)->Arg(64);

/// The stencil ILU(0) apply alone at a thread budget of 1 and 2. The mesh
/// is past util::kSerialCutoff, so at 2 threads both triangular sweeps run
/// as y-band plane pipelines; z is bit-identical either way.
void BM_Ilu0Apply(benchmark::State& state) {
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  if (systems.cells < util::kSerialCutoff) {
    state.SkipWithError("mesh below util::kSerialCutoff: the sweeps would not band");
    return;
  }
  const math::StencilIlu0Preconditioner ilu0(systems.stencil.op);
  const math::Vector r(systems.cells, 1.0);
  math::Vector z;
  util::set_concurrency(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    ilu0.apply(r, z);
    benchmark::DoNotOptimize(z.data());
  }
  util::set_concurrency(0);
  state.counters["cells"] = static_cast<double>(systems.cells);
}
BENCHMARK(BM_Ilu0Apply)->Args({64, 1})->Args({64, 2});

/// CG sweep: both preconditioner kinds on both operator forms. The label
/// names the combination; counters report cells and iterations to
/// convergence.
void BM_CgSweep(benchmark::State& state) {
  const auto kind = static_cast<math::PreconditionerKind>(state.range(1));
  const auto op_kind = static_cast<thermal::OperatorKind>(state.range(2));
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  const math::LinearOperator& a =
      op_kind == thermal::OperatorKind::kStencil
          ? static_cast<const math::LinearOperator&>(systems.stencil.op)
          : systems.csr.matrix;
  std::size_t iterations = 0;
  for (auto _ : state) {
    math::Vector x;
    math::SolverOptions options;
    options.preconditioner = kind;
    const auto result = math::conjugate_gradient(a, systems.csr.rhs, x, options);
    iterations = result.iterations;
    benchmark::DoNotOptimize(result.iterations);
  }
  state.SetLabel(std::string(math::to_string(kind)) + "/" +
                 std::string(thermal::to_string(op_kind)));
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.counters["iters"] = static_cast<double>(iterations);
}

void CgSweepArgs(benchmark::internal::Benchmark* b) {
  using math::PreconditionerKind;
  using thermal::OperatorKind;
  for (int64_t n : {32, 64}) {
    for (const PreconditionerKind kind :
         {PreconditionerKind::kIlu0, PreconditionerKind::kChebyshev}) {
      b->Args({n, static_cast<int64_t>(kind), static_cast<int64_t>(OperatorKind::kCsr)});
      b->Args({n, static_cast<int64_t>(kind), static_cast<int64_t>(OperatorKind::kStencil)});
    }
  }
}
BENCHMARK(BM_CgSweep)->Apply(CgSweepArgs)->Unit(benchmark::kMillisecond);

/// Chebyshev degree tuning on the stencil operator: higher degree buys fewer
/// CG iterations at more SpMVs per application. The sweet spot depends on
/// how SpMV-bound the iteration is.
void BM_CgChebyshevDegree(benchmark::State& state) {
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  std::size_t iterations = 0;
  for (auto _ : state) {
    math::Vector x;
    math::SolverOptions options;
    options.preconditioner = math::PreconditionerKind::kChebyshev;
    options.chebyshev.degree = static_cast<int>(state.range(1));
    const auto result =
        math::conjugate_gradient(systems.stencil.op, systems.csr.rhs, x, options);
    iterations = result.iterations;
    benchmark::DoNotOptimize(result.iterations);
  }
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.counters["iters"] = static_cast<double>(iterations);
}
BENCHMARK(BM_CgChebyshevDegree)
    ->ArgsProduct({{64}, {2, 4, 8, 12, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_Assembly(benchmark::State& state) {
  const double a = 2e-3;
  geometry::Scene scene;
  geometry::LayerStackBuilder stack(a, a);
  stack.add_layer({"die", "silicon", 300e-6});
  stack.emit(scene);
  mesh::MeshOptions options;
  options.default_max_cell_xy = 2e-3 / static_cast<double>(state.range(0));
  options.default_max_cell_z = 50e-6;
  const auto mesh = mesh::RectilinearMesh::build(scene, options);
  thermal::BoundarySet bcs;
  bcs[thermal::Face::kZMax] = thermal::FaceBc::convection(5e3, 30.0);
  for (auto _ : state) {
    auto system = thermal::assemble(mesh, bcs);
    benchmark::DoNotOptimize(system.rhs.data());
  }
  state.counters["cells"] = static_cast<double>(mesh.cell_count());
}
BENCHMARK(BM_Assembly)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

/// The transient hot path in miniature: one fixed stepping operator
/// (A + C/dt), a sequence of warm-started solves whose rhs advances with the
/// state, exactly like backward-Euler stepping. Four configurations:
///   0  per-solve ILU(0) on CSR       -- the pre-fix behaviour (refactor
///                                       the preconditioner on every step)
///   1  cached ILU(0) on CSR          -- preconditioner built once
///   2  cached Chebyshev on stencil   -- polynomial, threads end to end
///   3  cached ILU(0) on stencil      -- what TransientSolver steps with
void BM_RepeatedWarmSolve(benchmark::State& state) {
  constexpr int kSteps = 25;
  const int config = static_cast<int>(state.range(1));
  auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  const double dt = 5e-4;

  // Build the stepping operator once in stencil form, then export the exact
  // same matrix to CSR so every configuration solves the identical system.
  math::Vector shift = systems.capacitance;
  for (double& c : shift) {
    c /= dt;
  }
  math::StencilOperator7 stepping_stencil = systems.stencil.op;
  stepping_stencil.add_to_diagonal(shift);
  const math::CsrMatrix stepping_csr = stepping_stencil.to_csr();

  std::unique_ptr<math::Preconditioner> cached;
  if (config == 1) {
    cached = std::make_unique<math::Ilu0Preconditioner>(stepping_csr);
  } else if (config == 2) {
    cached = std::make_unique<math::ChebyshevPreconditioner>(stepping_stencil);
  } else if (config == 3) {
    cached = std::make_unique<math::StencilIlu0Preconditioner>(stepping_stencil);
  }
  const math::LinearOperator& a =
      config >= 2 ? static_cast<const math::LinearOperator&>(stepping_stencil)
                  : stepping_csr;

  const std::size_t n = stepping_csr.rows();
  std::size_t iterations = 0;
  for (auto _ : state) {
    math::Vector x(n, 30.0);
    math::Vector rhs(n);
    iterations = 0;
    for (int step = 0; step < kSteps; ++step) {
      for (std::size_t i = 0; i < n; ++i) {
        rhs[i] = systems.csr.rhs[i] + shift[i] * x[i];
      }
      math::SolverOptions options;
      math::SolverResult result;
      if (cached) {
        result = math::conjugate_gradient(a, rhs, x, *cached, options);
      } else {
        options.preconditioner = math::PreconditionerKind::kIlu0;
        result = math::conjugate_gradient(a, rhs, x, options);
      }
      iterations += result.iterations;
    }
    benchmark::DoNotOptimize(x.data());
  }
  static constexpr const char* kLabels[] = {"ilu0-per-solve/csr", "ilu0-cached/csr",
                                            "chebyshev-cached/stencil", "ilu0-cached/stencil"};
  state.SetLabel(kLabels[config]);
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.counters["iters"] = static_cast<double>(iterations);
}
BENCHMARK(BM_RepeatedWarmSolve)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({32, 3})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 3})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the JSON context carries the build type of
// *this* binary. gbench's own `library_build_type` key describes how the
// benchmark library was compiled, which says nothing about our optimisation
// flags; photherm_report's diff prefers photherm_build_type when refusing
// debug-vs-release comparisons.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("photherm_build_type", "release");
#else
  benchmark::AddCustomContext("photherm_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
