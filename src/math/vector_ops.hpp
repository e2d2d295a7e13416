/// \file vector_ops.hpp
/// \brief Free functions on std::vector<double> used by the Krylov solvers.
/// Kept header-only so the compiler can inline the hot loops.
///
/// Vectors below `util::kSerialCutoff` elements take the straight serial
/// path; larger ones dispatch chunks onto the shared thread pool within
/// the `util::concurrency()` budget. The reductions (`dot`, `norm2`)
/// accumulate fixed-size per-chunk partials and sum them in chunk order, so
/// their result depends only on the vector size — never on the thread
/// count — and every solver trajectory is bit-reproducible at 1, 2 or N
/// threads.
#pragma once

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace photherm::math {

using Vector = std::vector<double>;

inline double dot(const Vector& a, const Vector& b) {
  PH_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  const std::size_t n = a.size();
  if (n < util::kSerialCutoff) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += a[i] * b[i];
    }
    return acc;
  }
  return util::parallel_reduce(
      n, util::kKernelGrain, 0.0,
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

/// y += alpha * x
inline void axpy(double alpha, const Vector& x, Vector& y) {
  PH_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  if (x.size() < util::kSerialCutoff) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] += alpha * x[i];
    }
    return;
  }
  util::parallel_for(x.size(), util::kKernelGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      y[i] += alpha * x[i];
    }
  });
}

/// y = x + beta * y
inline void xpby(const Vector& x, double beta, Vector& y) {
  PH_REQUIRE(x.size() == y.size(), "xpby: size mismatch");
  if (x.size() < util::kSerialCutoff) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] = x[i] + beta * y[i];
    }
    return;
  }
  util::parallel_for(x.size(), util::kKernelGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      y[i] = x[i] + beta * y[i];
    }
  });
}

inline void scale(double alpha, Vector& x) {
  for (double& v : x) {
    v *= alpha;
  }
}

inline Vector subtract(const Vector& a, const Vector& b) {
  PH_REQUIRE(a.size() == b.size(), "subtract: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

inline double max_abs(const Vector& a) {
  double m = 0.0;
  for (double v : a) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

}  // namespace photherm::math
