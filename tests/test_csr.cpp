#include "math/csr_matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "support/fixtures.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace photherm::math {
namespace {

CsrMatrix small_matrix() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 2.0);
  builder.add(0, 1, -1.0);
  builder.add(1, 0, -1.0);
  builder.add(1, 1, 2.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 2.0);
  return builder.build();
}

TEST(CsrBuilder, MergesDuplicates) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.5);
  builder.add(1, 1, -1.0);
  const CsrMatrix m = builder.build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(CsrBuilder, RejectsOutOfRange) {
  CsrBuilder builder(2, 2);
  EXPECT_THROW(builder.add(2, 0, 1.0), Error);
  EXPECT_THROW(builder.add(0, 2, 1.0), Error);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  const CsrMatrix m = small_matrix();
  const Vector x{1.0, 2.0, 3.0};
  const Vector y = m.multiply(x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 0.0);   // 2*1 - 2
  EXPECT_DOUBLE_EQ(y[1], 0.0);   // -1 + 4 - 3
  EXPECT_DOUBLE_EQ(y[2], 4.0);   // -2 + 6
}

TEST(CsrMatrix, DiagonalExtraction) {
  const CsrMatrix m = small_matrix();
  const Vector d = m.diagonal();
  EXPECT_EQ(d, (Vector{2.0, 2.0, 2.0}));
}

TEST(CsrMatrix, SymmetryCheck) {
  EXPECT_TRUE(small_matrix().is_symmetric());
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 5.0);
  builder.add(1, 1, 1.0);
  EXPECT_FALSE(builder.build().is_symmetric());
}

TEST(CsrMatrix, EmptyRowsAllowed) {
  CsrBuilder builder(3, 3);
  builder.add(0, 0, 1.0);
  builder.add(2, 2, 1.0);
  const CsrMatrix m = builder.build();
  const Vector y = m.multiply({1.0, 1.0, 1.0});
  EXPECT_EQ(y, (Vector{1.0, 0.0, 1.0}));
}

TEST(VectorOps, DotNormAxpy) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  Vector y{1.0, 1.0};
  axpy(2.0, a, y);
  EXPECT_EQ(y, (Vector{3.0, 5.0}));
}

TEST(VectorOps, SizeMismatchThrows) {
  const Vector a{1.0};
  const Vector b{1.0, 2.0};
  EXPECT_THROW(dot(a, b), Error);
  EXPECT_THROW(dot_pair(a, b), Error);
  Vector y{1.0};
  EXPECT_THROW(axpy(1.0, b, y), Error);
  Vector x{1.0};
  Vector r{1.0};
  EXPECT_THROW(cg_update(1.0, a, b, x, r), Error);
  EXPECT_THROW(cg_update(1.0, b, b, x, r), Error);
  Vector x2{1.0, 2.0};
  EXPECT_THROW(cg_update(1.0, b, b, x2, r), Error);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Entries spread over ~12 decades, so any change to the order in which a
/// sum rounds shows in its last bits.
Vector spread_vector(std::size_t n, Rng& rng) {
  Vector v(n);
  for (double& x : v) {
    x = std::ldexp(rng.uniform(-1.0, 1.0), rng.uniform_int(-20, 20));
  }
  return v;
}

/// dot_pair and cg_update fuse CG's vector passes; each must round exactly
/// like the calls it replaces, on the serial loop (1,000 elements) and on
/// the chunked one (four chunks, the last of 17 elements), at a budget of
/// one and of two threads.
TEST(VectorOps, FusedKernelsMatchTheCallsTheyReplace) {
  for (const std::size_t n : {std::size_t{1000}, 3 * util::kKernelGrain + 17}) {
    Rng rng(n);
    const Vector a = spread_vector(n, rng);
    const Vector b = spread_vector(n, rng);
    const Vector p = spread_vector(n, rng);
    const Vector ap = spread_vector(n, rng);
    const Vector x0 = spread_vector(n, rng);
    const Vector r0 = spread_vector(n, rng);
    const double alpha = 0.3141592653589793;
    for (const std::size_t threads : {1u, 2u}) {
      SCOPED_TRACE(testing::Message() << n << " elements, " << threads << " threads");
      fixtures::ScopedConcurrency budget(threads);
      const DotPair pair = dot_pair(a, b);
      EXPECT_EQ(bits(pair.ab), bits(dot(a, b)));
      EXPECT_EQ(bits(pair.aa), bits(dot(a, a)));

      Vector x = x0;
      Vector r = r0;
      cg_update(alpha, p, ap, x, r);
      Vector x_ref = x0;
      Vector r_ref = r0;
      axpy(alpha, p, x_ref);
      axpy(-alpha, ap, r_ref);
      EXPECT_TRUE(fixtures::same_bytes(x, x_ref));
      EXPECT_TRUE(fixtures::same_bytes(r, r_ref));
    }
  }
}

}  // namespace
}  // namespace photherm::math
