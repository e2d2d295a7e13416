/// \file vector_ops.hpp
/// \brief Free functions on std::vector<double> used by the Krylov solvers.
/// Kept header-only so the compiler can inline the hot loops.
///
/// Vectors below `util::kSerialCutoff` elements take the straight serial
/// path; larger ones dispatch chunks onto the shared thread pool within
/// the `util::concurrency()` budget (`util::kernel_for`, `kernel_reduce`).
/// The reductions (`dot`, `norm2`, `dot_pair`) accumulate fixed-size
/// per-chunk partials and sum them in chunk order, so their result depends
/// only on the vector size — never on the thread count — and every solver
/// trajectory is bit-reproducible at 1, 2 or N threads.
///
/// `dot_pair` and `cg_update` fuse the vector passes of a CG iteration
/// (r·z with r·r, and the x/r updates) into one loop and one pool region
/// each, while every element and every partial rounds exactly as in the
/// separate `dot` and `axpy` calls they replace.
#pragma once

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace photherm::math {

using Vector = std::vector<double>;

inline double dot(const Vector& a, const Vector& b) {
  PH_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  return util::kernel_reduce(
      a.size(), 0.0,
      [&](std::size_t begin, std::size_t end) {
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          acc += a[i] * b[i];
        }
        return acc;
      },
      [](double acc, double p) { return acc + p; });
}

inline double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

/// The two sums of dot_pair.
struct DotPair {
  double ab;  ///< a·b
  double aa;  ///< a·a
};

/// {dot(a, b), dot(a, a)} from one pass over a and b. Each sum keeps dot's
/// serial loop and chunk partials, so both are bit-identical to the
/// separate calls; the two add chains just run side by side.
inline DotPair dot_pair(const Vector& a, const Vector& b) {
  PH_REQUIRE(a.size() == b.size(), "dot_pair: size mismatch");
  return util::kernel_reduce(
      a.size(), DotPair{0.0, 0.0},
      [&](std::size_t begin, std::size_t end) {
        double ab = 0.0;
        double aa = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          ab += a[i] * b[i];
          aa += a[i] * a[i];
        }
        return DotPair{ab, aa};
      },
      [](DotPair acc, DotPair p) { return DotPair{acc.ab + p.ab, acc.aa + p.aa}; });
}

/// y += alpha * x
inline void axpy(double alpha, const Vector& x, Vector& y) {
  PH_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  util::kernel_for(x.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      y[i] += alpha * x[i];
    }
  });
}

/// y = x + beta * y
inline void xpby(const Vector& x, double beta, Vector& y) {
  PH_REQUIRE(x.size() == y.size(), "xpby: size mismatch");
  util::kernel_for(x.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      y[i] = x[i] + beta * y[i];
    }
  });
}

/// CG's update x += alpha * p, r += (-alpha) * ap in one pass: element for
/// element the two axpy calls axpy(alpha, p, x) and axpy(-alpha, ap, r).
inline void cg_update(double alpha, const Vector& p, const Vector& ap, Vector& x, Vector& r) {
  PH_REQUIRE(ap.size() == p.size() && x.size() == p.size() && r.size() == p.size(),
             "cg_update: size mismatch");
  const double neg_alpha = -alpha;
  util::kernel_for(p.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      x[i] += alpha * p[i];
      r[i] += neg_alpha * ap[i];
    }
  });
}

}  // namespace photherm::math
