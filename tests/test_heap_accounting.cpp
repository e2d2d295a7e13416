/// How many cell-sized arrays the thermal solves hold, measured by counting
/// live heap bytes through a replaced global operator new/delete. The
/// replacement is why this suite is a binary of its own: every allocation
/// in the process goes through it.
///
/// A steady solve on n cells holds ten arrays at its peak: the solution,
/// the stencil operator (diagonal and three couplings), the rhs, the
/// ILU(0) factor's reciprocal pivots (it shares the operator's couplings)
/// and CG's three work vectors. A transient stepper holds thirteen between
/// steps.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

#include "support/fixtures.hpp"
#include "thermal/fvm.hpp"
#include "thermal/transient.hpp"

namespace {

/// Each block carries its size in a header, so a delete without a size
/// still knows what it returns.
constexpr std::size_t kHeader = alignof(std::max_align_t);

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* counted_new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<std::size_t*>(block) = size;
  const std::size_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  void* block = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(block), std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace photherm::thermal {
namespace {

/// Live heap bytes now, and the peak since the last reset.
std::size_t live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::size_t reset_peak() {
  const std::size_t live = live_bytes();
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}
std::size_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

/// The heated slab of the stencil tests at 20 um in x/y and z: 26,010
/// cells.
std::shared_ptr<const mesh::RectilinearMesh> large_mesh() {
  return std::make_shared<const mesh::RectilinearMesh>(fixtures::heated_mesh(20e-6, 20e-6));
}

double in_arrays(std::size_t bytes, std::size_t cells) {
  return static_cast<double>(bytes) / static_cast<double>(cells * sizeof(double));
}

TEST(HeapAccounting, SteadySolvePeaksAtTwelveCellArraysAboveTheMesh) {
  // One thread, so no pool start-up allocation blurs the count.
  const fixtures::ScopedConcurrency serial(1);
  const auto mesh = large_mesh();
  const std::size_t n = mesh->cell_count();
  ASSERT_GE(n, 20000u);
  const BoundarySet bcs = fixtures::all_faces_bcs();

  const std::size_t before = reset_peak();
  const ThermalField field = solve_steady_state(mesh, bcs);
  const std::size_t peak = peak_bytes() - before;

  EXPECT_LE(peak, 12 * n * sizeof(double))
      << "the steady solve peaked at " << in_arrays(peak, n) << " cell arrays above the mesh";
  // What outlives the solve is the field's temperatures.
  EXPECT_LE(live_bytes() - before, n * sizeof(double) + 4096);
  EXPECT_EQ(field.temperatures().size(), n);
}

TEST(HeapAccounting, TransientSolverHoldsOneSetOfCouplings) {
  const fixtures::ScopedConcurrency serial(1);
  const auto mesh = large_mesh();
  const std::size_t n = mesh->cell_count();
  const BoundarySet bcs = fixtures::all_faces_bcs();

  // Thirteen arrays: A's diagonal and couplings, the steady rhs, the
  // stepping diagonal C/dt + diag(A), the ILU(0) pivots, then power,
  // boundary rhs, C/dt, step rhs, state and field. The stepping operator
  // and the factor share A's couplings; a second set would make sixteen.
  const std::size_t before = live_bytes();
  TransientSolver solver(mesh, bcs);
  const auto held = [&] { return live_bytes() - before; };
  EXPECT_LT(held(), 14 * n * sizeof(double))
      << "a new solver holds " << in_arrays(held(), n) << " cell arrays";

  solver.set_uniform_state(25.0);
  solver.step();
  solver.set_time_step(2 * solver.time_step());
  solver.step();
  EXPECT_LT(held(), 14 * n * sizeof(double))
      << "after a rebuild and two steps the solver holds " << in_arrays(held(), n)
      << " cell arrays";
}

}  // namespace
}  // namespace photherm::thermal
