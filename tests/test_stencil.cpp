/// Tests for the matrix-free 7-point stencil operator and the Chebyshev
/// preconditioner: equivalence with the CSR assembly on non-uniform meshes
/// with every boundary face active, bit-identical threading, and the
/// stencil solve path end to end.
#include "math/stencil_operator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "math/preconditioner.hpp"
#include "math/solvers.hpp"
#include "support/fixtures.hpp"
#include "thermal/fvm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace photherm::math {
namespace {

using fixtures::add_heater;
using fixtures::all_faces_bcs;
using fixtures::diagonally_dominant_stencil;
using fixtures::heated_mesh;
using fixtures::same_bytes;
using fixtures::ScopedConcurrency;
using fixtures::uniform_mesh_options;
using fixtures::uniform_slab;
using geometry::Box3;
using thermal::BoundarySet;
using thermal::Face;
using thermal::FaceBc;

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Vector v(n);
  Rng rng(seed);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

/// The couplings of each row to the cell `stride` rows below it: the
/// operator stores them once, in that cell's +axis stream `upper`.
Vector mirrored(const Vector& upper, std::size_t stride) {
  Vector lower(upper.size(), 0.0);
  std::copy(upper.begin(), upper.end() - static_cast<std::ptrdiff_t>(stride),
            lower.begin() + static_cast<std::ptrdiff_t>(stride));
  return lower;
}

/// Reference for the stencil ILU(0) apply: the same relaxed factor, swept
/// in flat natural order over every cell, one loop per triangle, with the
/// first / last plane guarded and every other row multiplying its boundary
/// cells' zero coefficients by whatever value the offset wraps to.
class FlatIlu0 {
 public:
  explicit FlatIlu0(const StencilOperator7& a)
      : sy_(a.nx()),
        sz_(a.nx() * a.ny()),
        inv_pivot_(a.diag()),
        west_(mirrored(a.east(), 1)),
        east_(a.east()),
        south_(mirrored(a.north(), sy_)),
        north_(a.north()),
        down_(mirrored(a.up(), sz_)),
        up_(a.up()) {
    const double w = kIlu0Relaxation;
    Vector& pivot = inv_pivot_;
    for (std::size_t i = 0; i < pivot.size(); ++i) {
      double d = pivot[i];
      if (i >= sz_) {
        const std::size_t j = i - sz_;
        const double l = down_[i] / pivot[j];
        d -= w * (l * east_[j]);
        d -= w * (l * north_[j]);
        d -= l * up_[j];
      }
      if (i >= sy_) {
        const std::size_t j = i - sy_;
        const double l = south_[i] / pivot[j];
        d -= w * (l * east_[j]);
        d -= l * north_[j];
        d -= w * (l * up_[j]);
      }
      if (i >= 1) {
        const std::size_t j = i - 1;
        const double l = west_[i] / pivot[j];
        d -= l * east_[j];
        d -= w * (l * north_[j]);
        d -= w * (l * up_[j]);
      }
      pivot[i] = d;
    }
    for (std::size_t i = 0; i < pivot.size(); ++i) {
      const double inv = 1.0 / pivot[i];
      inv_pivot_[i] = inv;
      for (Vector* stream : {&west_, &east_, &south_, &north_, &down_, &up_}) {
        (*stream)[i] *= inv;
      }
    }
  }

  Vector apply(const Vector& r) const {
    const std::size_t n = inv_pivot_.size();
    Vector z(n);
    std::size_t i = 0;
    for (; i < sz_; ++i) {
      double acc = r[i] * inv_pivot_[i];
      if (i >= sy_) {
        acc -= south_[i] * z[i - sy_];
      }
      if (i >= 1) {
        acc -= west_[i] * z[i - 1];
      }
      z[i] = acc;
    }
    for (; i < n; ++i) {
      double acc = r[i] * inv_pivot_[i];
      acc -= down_[i] * z[i - sz_];
      acc -= south_[i] * z[i - sy_];
      acc -= west_[i] * z[i - 1];
      z[i] = acc;
    }
    for (i = n; i-- > n - sz_;) {
      double acc = z[i];
      if (i + sy_ < n) {
        acc -= north_[i] * z[i + sy_];
      }
      if (i + 1 < n) {
        acc -= east_[i] * z[i + 1];
      }
      z[i] = acc;
    }
    for (i = n - sz_; i-- > 0;) {
      double acc = z[i];
      acc -= up_[i] * z[i + sz_];
      acc -= north_[i] * z[i + sy_];
      acc -= east_[i] * z[i + 1];
      z[i] = acc;
    }
    return z;
  }

 private:
  std::size_t sy_, sz_;
  Vector inv_pivot_, west_, east_, south_, north_, down_, up_;
};

TEST(Stencil, MatchesCsrOnNonUniformMeshWithAllBcFaces) {
  const auto mesh = heated_mesh(60e-6, 90e-6);
  ASSERT_GT(mesh.nx(), 2u);
  ASSERT_GT(mesh.nz(), 1u);
  const BoundarySet bcs = all_faces_bcs();

  const thermal::DiscreteSystem csr = thermal::assemble(mesh, bcs);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, bcs);

  // rhs comes from the shared assembly core: bit-equal.
  EXPECT_EQ(csr.rhs, stencil.rhs);

  // The operators match coefficient for coefficient up to the CsrBuilder's
  // unspecified duplicate-summation order (a few ULP on the diagonal).
  const std::size_t n = mesh.cell_count();
  const Vector x = random_vector(n, 3);
  Vector y_csr, y_stencil;
  csr.matrix.apply(x, y_csr);
  stencil.op.apply(x, y_stencil);
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    scale = std::max(scale, std::abs(y_csr[i]));
  }
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y_stencil[i], y_csr[i], 1e-13 * scale) << "row " << i;
  }
}

TEST(Stencil, FromCsrAppliesBitIdenticallyToCsr) {
  // Same values, same ascending-column accumulation order -> the matrix-free
  // kernel reproduces the CSR SpMV exactly, not just approximately. The
  // large mesh exceeds kSerialCutoff and its plane size does not divide
  // kKernelGrain, so at 2 threads the interior kernel also runs in chunks
  // that begin and end mid-plane.
  const auto small = heated_mesh(80e-6, 90e-6);
  const auto large = heated_mesh(20e-6, 25e-6);
  ASSERT_GT(large.cell_count(), util::kSerialCutoff);
  ASSERT_NE(util::kKernelGrain % (large.nx() * large.ny()), 0u);
  for (const mesh::RectilinearMesh* mesh : {&small, &large}) {
    SCOPED_TRACE(testing::Message() << mesh->nx() << "x" << mesh->ny() << "x" << mesh->nz());
    const thermal::DiscreteSystem csr = thermal::assemble(*mesh, all_faces_bcs());
    const StencilOperator7 op =
        StencilOperator7::from_csr(csr.matrix, mesh->nx(), mesh->ny(), mesh->nz());
    EXPECT_EQ(csr.matrix.diagonal(), op.diagonal());

    const Vector x = random_vector(mesh->cell_count(), 11);
    Vector y_csr;
    csr.matrix.apply(x, y_csr);
    for (const std::size_t threads : {1u, 2u}) {
      ScopedConcurrency budget(threads);
      Vector y_stencil;
      op.apply(x, y_stencil);
      EXPECT_EQ(y_csr, y_stencil) << threads << " threads";
    }
  }
}

TEST(Stencil, ToCsrRoundTripIsExact) {
  const auto mesh = heated_mesh(80e-6, 90e-6);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, all_faces_bcs());
  const CsrMatrix csr = stencil.op.to_csr();
  const StencilOperator7 back =
      StencilOperator7::from_csr(csr, mesh.nx(), mesh.ny(), mesh.nz());
  EXPECT_EQ(back.diag(), stencil.op.diag());
  EXPECT_EQ(back.east(), stencil.op.east());
  EXPECT_EQ(back.north(), stencil.op.north());
  EXPECT_EQ(back.up(), stencil.op.up());
  // Both triangles, the lower one read off the stored +axis couplings,
  // come back entry for entry.
  const CsrMatrix again = back.to_csr();
  EXPECT_EQ(again.row_ptr(), csr.row_ptr());
  EXPECT_EQ(again.col_idx(), csr.col_idx());
  EXPECT_EQ(again.values(), csr.values());
}

TEST(Stencil, ApplyIsBitIdenticalAcrossThreadCounts) {
  // 26^3 = 17576 rows exceeds kSerialCutoff, so the threaded kernel runs.
  const double a = 1e-3;
  geometry::Scene scene = uniform_slab(a, a);
  const auto mesh =
      mesh::RectilinearMesh::build(scene, uniform_mesh_options(a / 26.0, a / 26.0));
  ASSERT_GE(mesh.cell_count(), util::kSerialCutoff);

  BoundarySet bcs;
  bcs[Face::kZMax] = FaceBc::convection(1e4, 25.0);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, bcs);
  const Vector x = random_vector(mesh.cell_count(), 17);

  const auto apply_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    Vector y;
    stencil.op.apply(x, y);
    return y;
  };
  const Vector y1 = apply_at(1);
  EXPECT_EQ(y1, apply_at(2));
  EXPECT_EQ(y1, apply_at(4));
}

TEST(StencilIlu0, ApplyIsBitIdenticalAcrossThreadCounts) {
  // 47 x 47 x 8 = 17672 cells, past kSerialCutoff, so the sweeps run as
  // band pipelines; 47 rows split into unequal bands at 2, 3 and 4 threads.
  const auto mesh = heated_mesh(22e-6, 25e-6);
  ASSERT_GE(mesh.cell_count(), util::kSerialCutoff);
  ASSERT_NE(mesh.ny() % 3, 0u);
  const thermal::StencilSystem meshed = thermal::assemble_stencil(mesh, all_faces_bcs());

  // Fewer y-rows than threads caps the band count at ny = 2.
  const StencilOperator7 thin = diagonally_dominant_stencil(96, 2, 96, 53);
  ASSERT_GE(thin.rows(), util::kSerialCutoff);

  for (const StencilOperator7* op : {&meshed.op, &thin}) {
    SCOPED_TRACE(testing::Message() << op->nx() << "x" << op->ny() << "x" << op->nz());
    const StencilIlu0Preconditioner ilu0(*op);
    const Vector r = random_vector(op->rows(), 59);
    const Vector reference = FlatIlu0(*op).apply(r);
    // z starts as NaN, so a band that read a row before its owner wrote it
    // would poison the result; repeats give a missing wait more chances
    // to show.
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      ScopedConcurrency budget(threads);
      for (int repeat = 0; repeat < 8; ++repeat) {
        Vector z(op->rows(), std::numeric_limits<double>::quiet_NaN());
        ilu0.apply(r, z);
        ASSERT_TRUE(same_bytes(z, reference)) << threads << " threads, repeat " << repeat;
      }
    }

    // Applies issued from inside pool workers, several at once on the one
    // object, run inline and produce the same bytes.
    ScopedConcurrency budget(4);
    std::vector<Vector> nested(4);
    util::parallel_for(nested.size(), 1,
                       [&](std::size_t b, std::size_t) { ilu0.apply(r, nested[b]); });
    for (const Vector& z : nested) {
      EXPECT_TRUE(same_bytes(z, reference)) << "nested in a parallel_for";
    }
  }
}

TEST(StencilIlu0, FactorAppliesUnchangedAfterItsOperatorIsWrittenOrDestroyed) {
  auto op = std::make_unique<StencilOperator7>(diagonally_dominant_stencil(9, 7, 5, 61));
  const StencilOperator7 snapshot = *op;
  const StencilIlu0Preconditioner ilu0(*op);
  const Vector r = random_vector(op->rows(), 67);
  Vector before;
  ilu0.apply(r, before);
  ASSERT_TRUE(same_bytes(before, FlatIlu0(snapshot).apply(r)));

  // Scale every stream the factor was built from through the mutable
  // accessors. The operator changes; its copy and the factor do not.
  for (Vector* stream : {&op->diag(), &op->east(), &op->north(), &op->up()}) {
    for (double& v : *stream) {
      v *= 3.0;
    }
  }
  EXPECT_EQ(op->east()[0], 3.0 * snapshot.east()[0]);
  Vector rebuilt;
  StencilIlu0Preconditioner(*op).apply(r, rebuilt);
  EXPECT_FALSE(same_bytes(rebuilt, before));
  Vector after_write;
  ilu0.apply(r, after_write);
  EXPECT_TRUE(same_bytes(after_write, before));
  EXPECT_TRUE(same_bytes(FlatIlu0(snapshot).apply(r), before));

  op.reset();
  Vector after_destroy;
  ilu0.apply(r, after_destroy);
  EXPECT_TRUE(same_bytes(after_destroy, before));
}

TEST(Stencil, AddToDiagonalShiftsOnlyTheDiagonal) {
  const auto mesh = heated_mesh(100e-6, 0.0);
  thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, all_faces_bcs());
  const StencilOperator7 original = stencil.op;

  Vector shift(mesh.cell_count());
  for (std::size_t i = 0; i < shift.size(); ++i) {
    shift[i] = static_cast<double>(i + 1);
  }
  stencil.op.add_to_diagonal(shift);
  for (std::size_t i = 0; i < shift.size(); ++i) {
    EXPECT_DOUBLE_EQ(stencil.op.diag()[i], original.diag()[i] + shift[i]);
  }
  EXPECT_EQ(stencil.op.east(), original.east());
  EXPECT_EQ(stencil.op.up(), original.up());
}

TEST(Stencil, FromCsrRejectsOffPatternEntries) {
  // 2x2x2 grid; (0, 3) is neither a face neighbour of cell 0 nor the
  // diagonal.
  CsrBuilder builder(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    builder.add(i, i, 6.0);
  }
  builder.add(0, 3, -1.0);
  EXPECT_THROW(StencilOperator7::from_csr(builder.build(), 2, 2, 2), Error);

  // An in-pattern offset on the wrong side of a grid seam must also be
  // rejected: (1, 2) has offset +1 but cell 1 is at ix == nx - 1.
  CsrBuilder seam(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    seam.add(i, i, 6.0);
  }
  seam.add(1, 2, -1.0);
  EXPECT_THROW(StencilOperator7::from_csr(seam.build(), 2, 2, 2), Error);
}

TEST(Stencil, FromCsrRejectsAsymmetricCoupling) {
  // The stencil stores each face's coupling once, so from_csr must refuse
  // a matrix whose two triangles disagree in any bit, naming both entries.
  const auto mesh = heated_mesh(80e-6, 90e-6);
  ASSERT_GE(mesh.nx(), 2u);
  ASSERT_GE(mesh.ny(), 3u);
  ASSERT_GE(mesh.nz(), 2u);
  const thermal::DiscreteSystem csr = thermal::assemble(mesh, all_faces_bcs());
  const CsrMatrix& a = csr.matrix;
  EXPECT_NO_THROW(StencilOperator7::from_csr(a, mesh.nx(), mesh.ny(), mesh.nz()));

  const std::size_t sy = mesh.nx();
  const std::size_t cell = mesh.nx() * mesh.ny() + sy + 1;  // (1, 1, 1)
  const auto position = [&](std::size_t i, std::size_t j) {
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      if (a.col_idx()[k] == j) {
        return k;
      }
    }
    ADD_FAILURE() << "(" << i << ", " << j << ") is not stored";
    return std::size_t{0};
  };
  const auto expect_rejected = [&](const CsrMatrix& bad, std::size_t i, std::size_t j) {
    try {
      StencilOperator7::from_csr(bad, mesh.nx(), mesh.ny(), mesh.nz());
      ADD_FAILURE() << "expected Error for (" << i << ", " << j << ")";
    } catch (const Error& e) {
      const std::string what = e.what();
      const auto entry = [](std::size_t r, std::size_t c) {
        std::ostringstream os;
        os << "(" << r << ", " << c << ")";
        return os.str();
      };
      EXPECT_NE(what.find(entry(i, j)), std::string::npos) << what;
      EXPECT_NE(what.find(entry(j, i)), std::string::npos) << what;
    }
  };

  // One ULP on the lower entry of an x face, then on the upper entry of a
  // y face.
  for (const auto& [i, j] : {std::pair{cell, cell - 1}, std::pair{cell, cell + sy}}) {
    std::vector<double> values = a.values();
    double& v = values[position(i, j)];
    v = std::nextafter(v, 0.0);
    expect_rejected(CsrMatrix(a.rows(), a.cols(), a.row_ptr(), a.col_idx(), values), i, j);
  }

  // Dropping one mirror leaves a coupling against an implicit zero.
  const std::size_t k = position(cell, cell - sy);
  std::vector<std::size_t> row_ptr = a.row_ptr();
  std::vector<std::uint32_t> col_idx = a.col_idx();
  std::vector<double> values = a.values();
  col_idx.erase(col_idx.begin() + static_cast<std::ptrdiff_t>(k));
  values.erase(values.begin() + static_cast<std::ptrdiff_t>(k));
  for (std::size_t r = cell + 1; r < row_ptr.size(); ++r) {
    --row_ptr[r];
  }
  expect_rejected(CsrMatrix(a.rows(), a.cols(), row_ptr, col_idx, values), cell, cell - sy);
}

TEST(Stencil, ApplyDotEqualsApplyThenDot) {
  // Below kSerialCutoff the fused product runs the serial loops; above it
  // (five full chunks and a partial one) the chunk partials. The CSR matrix
  // takes LinearOperator's default. Several x vectors, so that a partial
  // folded out of order shows in the last bits of at least one result.
  const StencilOperator7 small = diagonally_dominant_stencil(9, 7, 5, 61);
  const StencilOperator7 large = diagonally_dominant_stencil(40, 37, 29, 67);
  ASSERT_LT(small.rows(), util::kSerialCutoff);
  ASSERT_GT(large.rows(), 5 * util::kKernelGrain);
  ASSERT_NE(large.rows() % util::kKernelGrain, 0u);
  const CsrMatrix csr = large.to_csr();
  for (const LinearOperator* op :
       {static_cast<const LinearOperator*>(&small), static_cast<const LinearOperator*>(&large),
        static_cast<const LinearOperator*>(&csr)}) {
    for (const std::uint64_t seed : {71u, 72u, 73u, 74u}) {
      const Vector x = random_vector(op->rows(), seed);
      for (const std::size_t threads : {1u, 2u}) {
        SCOPED_TRACE(testing::Message()
                     << op->rows() << " rows, seed " << seed << ", " << threads << " threads");
        ScopedConcurrency budget(threads);
        Vector y_ref;
        op->apply(x, y_ref);
        const double dot_ref = dot(x, y_ref);
        Vector y;
        const double fused = op->apply_dot(x, y);
        EXPECT_TRUE(same_bytes(y, y_ref));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fused), std::bit_cast<std::uint64_t>(dot_ref));
      }
    }
  }
}

TEST(Stencil, GershgorinBoundContainsJacobiScaledSpectrum) {
  const auto mesh = heated_mesh(80e-6, 90e-6);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, all_faces_bcs());
  const std::size_t n = mesh.cell_count();

  Vector inv_diag = stencil.op.diagonal();
  for (double& d : inv_diag) {
    ASSERT_GT(d, 0.0);
    d = 1.0 / d;
  }
  const double bound = stencil.op.scaled_row_sum_bound(inv_diag);
  ASSERT_TRUE(std::isfinite(bound));
  // The scaled row sum includes the diagonal itself, so the bound is >= 1.
  EXPECT_GE(bound, 1.0);

  // Power iteration on B = D^{-1} A: its estimate grows toward the true
  // spectral radius from below, so it must stay under the bound.
  Vector v = random_vector(n, 23);
  Vector av(n);
  double estimate = 0.0;
  for (int iter = 0; iter < 30; ++iter) {
    stencil.op.apply(v, av);
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      av[i] *= inv_diag[i];
      norm += av[i] * av[i];
    }
    norm = std::sqrt(norm);
    ASSERT_GT(norm, 0.0);
    double vnorm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      vnorm += v[i] * v[i];
    }
    estimate = norm / std::sqrt(vnorm);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = av[i] / norm;
    }
  }
  EXPECT_LE(estimate, bound * (1.0 + 1e-12));
}

// --- Chebyshev preconditioning on the stencil path. --------------------------

TEST(Chebyshev, PreconditionerIsSymmetric) {
  const auto mesh = heated_mesh(80e-6, 90e-6);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, all_faces_bcs());
  const ChebyshevPreconditioner precond(stencil.op);
  const std::size_t n = mesh.cell_count();

  // CG needs a symmetric M^{-1}: <M^{-1}u, v> == <u, M^{-1}v>.
  const Vector u = random_vector(n, 5);
  const Vector v = random_vector(n, 6);
  Vector mu, mv;
  precond.apply(u, mu);
  precond.apply(v, mv);
  double left = 0.0, right = 0.0, mag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    left += mu[i] * v[i];
    right += u[i] * mv[i];
    mag += std::abs(mu[i] * v[i]);
  }
  EXPECT_NEAR(left, right, 1e-12 * std::max(1.0, mag));
}

TEST(Chebyshev, SameResultOnCsrAndStencilForms) {
  const auto mesh = heated_mesh(80e-6, 90e-6);
  const thermal::DiscreteSystem csr = thermal::assemble(mesh, all_faces_bcs());
  const StencilOperator7 op =
      StencilOperator7::from_csr(csr.matrix, mesh.nx(), mesh.ny(), mesh.nz());

  const ChebyshevPreconditioner from_csr_matrix(csr.matrix);
  const ChebyshevPreconditioner from_stencil(op);
  EXPECT_EQ(from_csr_matrix.lambda_max(), from_stencil.lambda_max());

  const Vector r = random_vector(mesh.cell_count(), 9);
  Vector z_csr, z_stencil;
  from_csr_matrix.apply(r, z_csr);
  from_stencil.apply(r, z_stencil);
  EXPECT_EQ(z_csr, z_stencil);
}

TEST(Chebyshev, ApplyIsBitIdenticalAcrossThreadCounts) {
  const double a = 1e-3;
  geometry::Scene scene = uniform_slab(a, a);
  const auto mesh =
      mesh::RectilinearMesh::build(scene, uniform_mesh_options(a / 26.0, a / 26.0));
  ASSERT_GE(mesh.cell_count(), util::kSerialCutoff);
  BoundarySet bcs;
  bcs[Face::kZMax] = FaceBc::convection(1e4, 25.0);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, bcs);
  const ChebyshevPreconditioner precond(stencil.op);

  const Vector r = random_vector(mesh.cell_count(), 31);
  const auto apply_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    Vector z;
    precond.apply(r, z);
    return z;
  };
  const Vector z1 = apply_at(1);
  EXPECT_EQ(z1, apply_at(2));
  EXPECT_EQ(z1, apply_at(4));
}

TEST(Chebyshev, StencilCgMatchesIlu0CsrField) {
  const auto mesh = heated_mesh(60e-6, 90e-6);
  const BoundarySet bcs = all_faces_bcs();

  const thermal::DiscreteSystem csr = thermal::assemble(mesh, bcs);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, bcs);

  SolverOptions ilu0_options;
  ilu0_options.rel_tolerance = 1e-12;
  ilu0_options.preconditioner = PreconditionerKind::kIlu0;
  Vector t_ilu0;
  const SolverResult r_ilu0 = conjugate_gradient(csr.matrix, csr.rhs, t_ilu0, ilu0_options);
  ASSERT_TRUE(r_ilu0.converged);

  SolverOptions chebyshev_options;
  chebyshev_options.rel_tolerance = 1e-12;
  chebyshev_options.preconditioner = PreconditionerKind::kChebyshev;
  Vector t_chebyshev;
  const SolverResult r_chebyshev =
      conjugate_gradient(stencil.op, stencil.rhs, t_chebyshev, chebyshev_options);
  ASSERT_TRUE(r_chebyshev.converged);

  double scale = 1.0;
  for (double t : t_ilu0) {
    scale = std::max(scale, std::abs(t));
  }
  for (std::size_t i = 0; i < t_ilu0.size(); ++i) {
    EXPECT_NEAR(t_chebyshev[i], t_ilu0[i], 1e-9 * scale) << "cell " << i;
  }
}

TEST(Chebyshev, SettingsAreValidated) {
  const auto mesh = heated_mesh(100e-6, 0.0);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, all_faces_bcs());
  ChebyshevSettings bad_degree;
  bad_degree.degree = 0;
  EXPECT_THROW(ChebyshevPreconditioner(stencil.op, bad_degree), Error);
  ChebyshevSettings bad_ratio;
  bad_ratio.eig_ratio = 1.0;
  EXPECT_THROW(ChebyshevPreconditioner(stencil.op, bad_ratio), Error);
}

TEST(Chebyshev, ShiftedOperatorTightensTheSpectrumInterval) {
  const auto mesh = heated_mesh(100e-6, 0.0);
  thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, all_faces_bcs());

  // The lower bound is the best of the eig_ratio fallback and the
  // Gershgorin disc floor 2 - lambda_max of the Jacobi-scaled operator.
  const ChebyshevPreconditioner bare(stencil.op);
  EXPECT_NEAR(bare.lambda_min(),
              std::max(bare.lambda_max() / ChebyshevSettings().eig_ratio,
                       2.0 - bare.lambda_max()),
              1e-12 * bare.lambda_max());

  // A strong diagonal shift (transient stepping with a small dt) squeezes
  // the Jacobi-scaled spectrum toward 1; the lower bound must follow it
  // instead of staying at lambda_max / eig_ratio.
  Vector shift = thermal::heat_capacitance(mesh);
  const double dt = 1e-6;
  for (double& c : shift) {
    c /= dt;
  }
  stencil.op.add_to_diagonal(shift);
  const ChebyshevPreconditioner shifted(stencil.op);
  EXPECT_LT(shifted.lambda_max(), 1.5);
  EXPECT_NEAR(shifted.lambda_min(), 2.0 - shifted.lambda_max(),
              1e-12 * shifted.lambda_max());
  EXPECT_GT(shifted.lambda_min(), shifted.lambda_max() / ChebyshevSettings().eig_ratio);
}

TEST(Chebyshev, SteadyStateStencilFieldMatchesCsr) {
  // End to end through solve_steady_state: the stencil+Chebyshev path must
  // reproduce the explicit CSR+ILU(0) field.
  const double a = 1e-3;
  const double t = 200e-6;
  geometry::Scene scene = uniform_slab(a, t);
  add_heater(scene, Box3::make({0.25e-3, 0.25e-3, 0.0}, {0.75e-3, 0.75e-3, t}), 0.4);
  const auto options = uniform_mesh_options(60e-6, 90e-6);
  BoundarySet bcs;
  bcs[Face::kZMax] = FaceBc::convection(1e4, 25.0);
  bcs[Face::kZMin] = FaceBc::convection(1e3, 25.0);

  thermal::SteadyStateOptions csr_options;
  csr_options.operator_kind = thermal::OperatorKind::kCsr;
  csr_options.solver.preconditioner = PreconditionerKind::kIlu0;
  const auto field_csr =
      thermal::solve_steady_state(mesh::RectilinearMesh::build(scene, options), bcs, csr_options);

  thermal::SteadyStateOptions stencil_options;
  stencil_options.operator_kind = thermal::OperatorKind::kStencil;
  stencil_options.solver.preconditioner = PreconditionerKind::kChebyshev;
  const auto field_stencil = thermal::solve_steady_state(
      mesh::RectilinearMesh::build(scene, options), bcs, stencil_options);

  const auto& t_csr = field_csr.temperatures();
  const auto& t_stencil = field_stencil.temperatures();
  ASSERT_EQ(t_csr.size(), t_stencil.size());
  for (std::size_t i = 0; i < t_csr.size(); ++i) {
    EXPECT_NEAR(t_stencil[i], t_csr[i], 1e-6) << "cell " << i;
  }
}

// --- ILU(0) native on the stencil. ------------------------------------------

TEST(StencilIlu0, MatchesCsrIlu0OnTheSameCoefficients) {
  // from_csr copies the CSR values, so both factors see bit-equal
  // coefficients and compute the same pivots; only the stencil apply,
  // which multiplies by pivot-scaled streams where the CSR one divides,
  // rounds differently.
  const auto mesh = heated_mesh(60e-6, 90e-6);
  const thermal::DiscreteSystem csr = thermal::assemble(mesh, all_faces_bcs());
  const StencilOperator7 op =
      StencilOperator7::from_csr(csr.matrix, mesh.nx(), mesh.ny(), mesh.nz());

  const Ilu0Preconditioner csr_ilu0(csr.matrix);
  const StencilIlu0Preconditioner stencil_ilu0(op);
  const Vector r = random_vector(mesh.cell_count(), 41);
  Vector z_csr, z_stencil;
  csr_ilu0.apply(r, z_csr);
  stencil_ilu0.apply(r, z_stencil);
  double z_scale = 0.0;
  for (double z : z_csr) {
    z_scale = std::max(z_scale, std::abs(z));
  }
  ASSERT_GT(z_scale, 0.0);
  for (std::size_t i = 0; i < z_csr.size(); ++i) {
    ASSERT_NEAR(z_stencil[i], z_csr[i], 1e-12 * z_scale) << "row " << i;
  }

  SolverOptions options;
  options.rel_tolerance = 1e-10;
  options.preconditioner = PreconditionerKind::kIlu0;
  Vector t_csr, t_stencil;
  const SolverResult on_csr = conjugate_gradient(csr.matrix, csr.rhs, t_csr, options);
  const SolverResult on_stencil = conjugate_gradient(op, csr.rhs, t_stencil, options);
  ASSERT_TRUE(on_csr.converged);
  ASSERT_TRUE(on_stencil.converged);
  EXPECT_EQ(on_stencil.iterations, on_csr.iterations);
  double scale = 0.0;
  for (double t : t_csr) {
    scale = std::max(scale, std::abs(t));
  }
  for (std::size_t i = 0; i < t_csr.size(); ++i) {
    ASSERT_NEAR(t_stencil[i], t_csr[i], 1e-12 * scale) << "cell " << i;
  }
}

TEST(StencilIlu0, MatchesADenseRelaxedIluFactor) {
  // Textbook RILU, eliminated densely in right-looking (KIJ) order: every
  // update that lands outside A's sparsity pattern moves onto the row's
  // diagonal, scaled by kIlu0Relaxation. Nothing here shares code or loop
  // order with either production factor.
  const auto mesh = heated_mesh(0.4e-3, 70e-6);
  ASSERT_GE(mesh.nx(), 3u);
  ASSERT_GE(mesh.ny(), 3u);
  ASSERT_GE(mesh.nz(), 3u);
  const thermal::DiscreteSystem csr = thermal::assemble(mesh, all_faces_bcs());
  const StencilOperator7 op =
      StencilOperator7::from_csr(csr.matrix, mesh.nx(), mesh.ny(), mesh.nz());
  const std::size_t n = mesh.cell_count();

  std::vector<std::vector<double>> lu(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<bool>> pattern(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = csr.matrix.row_ptr()[i]; k < csr.matrix.row_ptr()[i + 1]; ++k) {
      lu[i][csr.matrix.col_idx()[k]] = csr.matrix.values()[k];
      pattern[i][csr.matrix.col_idx()[k]] = true;
    }
  }
  std::size_t relaxed_updates = 0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!pattern[i][k]) {
        continue;
      }
      lu[i][k] /= lu[k][k];
      for (std::size_t j = k + 1; j < n; ++j) {
        const double update = lu[i][k] * lu[k][j];
        if (update == 0.0) {
          continue;
        }
        if (pattern[i][j]) {
          lu[i][j] -= update;
        } else {
          lu[i][i] -= kIlu0Relaxation * update;
          ++relaxed_updates;
        }
      }
    }
  }
  EXPECT_GT(relaxed_updates, 0u);

  // z = U^{-1} L^{-1} r with the dense factors.
  const Vector r = random_vector(n, 47);
  Vector z_dense = r;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      z_dense[i] -= lu[i][j] * z_dense[j];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) {
      z_dense[i] -= lu[i][j] * z_dense[j];
    }
    z_dense[i] /= lu[i][i];
  }

  Vector z_stencil;
  StencilIlu0Preconditioner(op).apply(r, z_stencil);
  double scale = 0.0;
  for (double z : z_dense) {
    scale = std::max(scale, std::abs(z));
  }
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(z_stencil[i], z_dense[i], 1e-12 * scale) << "row " << i;
  }
}

TEST(StencilIlu0, IsAnExactSolveOnEveryOneDimensionalGrid) {
  // A line of cells along any axis gives a tridiagonal operator, whose
  // ILU(0) is its exact LU: M^{-1} A x == x. The x and y lines are a
  // single z-plane, so they run through the guarded plane loops only; the
  // z line runs through the branch-free interior.
  const std::size_t len = 40;
  using Dims = std::array<std::size_t, 3>;
  for (const Dims& dims : {Dims{len, 1, 1}, Dims{1, len, 1}, Dims{1, 1, len}}) {
    SCOPED_TRACE(testing::Message() << dims[0] << "x" << dims[1] << "x" << dims[2]);
    StencilOperator7 op(dims[0], dims[1], dims[2]);
    // Each face's coupling is stored once, on the cell below it.
    Vector& upper = dims[0] > 1 ? op.east() : dims[1] > 1 ? op.north() : op.up();
    for (std::size_t i = 0; i < len; ++i) {
      op.diag()[i] = 2.5 + 0.01 * static_cast<double>(i);
      if (i + 1 < len) {
        upper[i] = -1.0;
      }
    }
    const StencilIlu0Preconditioner ilu0(op);
    const Vector x = random_vector(len, 43);
    Vector ax, z;
    op.apply(x, ax);
    ilu0.apply(ax, z);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_NEAR(z[i], x[i], 1e-13) << "row " << i;
    }
  }
}

TEST(StencilIlu0, NamesTheRowOfANonPositiveDiagonal) {
  for (const double bad : {0.0, -0.25}) {
    StencilOperator7 op(3, 3, 3);
    for (double& d : op.diag()) {
      d = 6.0;
    }
    op.diag()[13] = bad;
    try {
      StencilIlu0Preconditioner precond(op);
      FAIL() << "expected Error for diagonal " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("row 13"), std::string::npos) << e.what();
    }
  }
}

TEST(StencilIlu0, EveryKindBuildsOnTheStencil) {
  const auto mesh = heated_mesh(100e-6, 0.0);
  const thermal::StencilSystem stencil = thermal::assemble_stencil(mesh, all_faces_bcs());
  const auto ilu0 = make_preconditioner(PreconditionerKind::kIlu0, stencil.op);
  EXPECT_NE(dynamic_cast<const StencilIlu0Preconditioner*>(ilu0.get()), nullptr);
  for (PreconditionerKind kind : {PreconditionerKind::kIlu0, PreconditionerKind::kChebyshev}) {
    EXPECT_NE(make_preconditioner(kind, stencil.op), nullptr) << to_string(kind);
  }
}

}  // namespace
}  // namespace photherm::math
