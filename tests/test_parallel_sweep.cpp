/// Determinism contract of the parallel sweep engine: every sweep and every
/// threaded math kernel must produce bit-identical results at 1, 2 and N
/// threads (N beyond the machine's core count, i.e. oversubscribed).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/design_space.hpp"
#include "math/solvers.hpp"
#include "noc/calibration.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace photherm {
namespace {

using fixtures::ScopedConcurrency;

core::OnocDesignSpec sweep_spec() {
  core::OnocDesignSpec spec = fixtures::coarse_onoc_spec();
  // Coarse enough that a handful of grid points stays test-sized.
  spec.placement = core::OniPlacementMode::kAllTiles;
  spec.heater_ratio = 0.0;
  spec.oni_cell_xy = 40e-6;
  return spec;
}

template <typename T>
void expect_bit_identical(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0) << what;
}

TEST(ParallelSweep, VcselChipPowerGridIsBitIdenticalAcrossThreadCounts) {
  const core::OnocDesignSpec spec = sweep_spec();
  const std::vector<double> p_chip{12.5, 25.0};
  const std::vector<double> p_vcsel{0.0, 6e-3};

  const auto at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    return core::sweep_vcsel_chip_power(spec, p_chip, p_vcsel);
  };
  const auto serial = at(1);
  ASSERT_EQ(serial.size(), 4u);
  expect_bit_identical(serial, at(2), "2 threads vs serial");
  expect_bit_identical(serial, at(8), "8 threads (oversubscribed) vs serial");
}

TEST(ParallelSweep, HeaterRatioSweepIsBitIdenticalAcrossThreadCounts) {
  const core::OnocDesignSpec spec = sweep_spec();
  const std::vector<double> ratios{0.0, 0.3, 0.6};

  const auto at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    return core::explore_heater_ratios(spec, ratios);
  };
  const auto serial = at(1);
  ASSERT_EQ(serial.size(), ratios.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    EXPECT_EQ(serial[i].heater_ratio, ratios[i]);
  }
  expect_bit_identical(serial, at(4), "4 threads vs serial");
}

void expect_same_thermal(const core::ThermalReport& a, const core::ThermalReport& b,
                         const char* what) {
  ASSERT_EQ(a.onis.size(), b.onis.size()) << what;
  EXPECT_EQ(a.chip_average, b.chip_average) << what;
  EXPECT_EQ(a.max_gradient, b.max_gradient) << what;
  EXPECT_EQ(a.oni_average, b.oni_average) << what;
  EXPECT_EQ(a.oni_spread, b.oni_spread) << what;
  for (std::size_t i = 0; i < a.onis.size(); ++i) {
    EXPECT_EQ(a.onis[i].oni, b.onis[i].oni) << what << ", ONI " << i;
    EXPECT_EQ(a.onis[i].average, b.onis[i].average) << what << ", ONI " << i;
    EXPECT_EQ(a.onis[i].gradient, b.onis[i].gradient) << what << ", ONI " << i;
    EXPECT_EQ(a.onis[i].peak_spread, b.onis[i].peak_spread) << what << ", ONI " << i;
    EXPECT_EQ(a.onis[i].vcsel_average, b.onis[i].vcsel_average) << what << ", ONI " << i;
    EXPECT_EQ(a.onis[i].mr_average, b.onis[i].mr_average) << what << ", ONI " << i;
    EXPECT_EQ(a.onis[i].vcsel_to_mr, b.onis[i].vcsel_to_mr) << what << ", ONI " << i;
  }
}

TEST(ParallelSweep, OniWindowLoopIsBitIdenticalAcrossThreadCounts) {
  // Ring placement: four independent per-ONI local-window solves, shared
  // across thread counts from one coarse global solve.
  core::OnocDesignSpec spec = fixtures::coarse_onoc_spec();
  spec.oni_cell_xy = 40e-6;
  const core::ThermalAwareDesigner designer(spec);
  const core::CoarseGlobalSolve global = designer.solve_global();

  const auto at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    return designer.evaluate_thermal(global);
  };
  const core::ThermalReport serial = at(1);
  ASSERT_EQ(serial.onis.size(), 4u);
  expect_same_thermal(serial, at(2), "2 threads vs serial");
  expect_same_thermal(serial, at(8), "8 threads (oversubscribed) vs serial");
}

TEST(ParallelSweep, SharedCoarseSolveMatchesColdSolveBitForBit) {
  core::OnocDesignSpec spec = fixtures::coarse_onoc_spec();
  spec.oni_cell_xy = 40e-6;
  const core::ThermalAwareDesigner designer(spec);

  // A designer whose spec differs only in SNR/local knobs shares the same
  // global scene and must reproduce its own cold solve exactly when handed
  // the other designer's coarse field.
  core::OnocDesignSpec snr_variant = spec;
  snr_variant.wdm_channels = 16;
  const core::ThermalAwareDesigner other(snr_variant);
  ASSERT_EQ(designer.global_scene_key(), other.global_scene_key());

  const core::CoarseGlobalSolve global = designer.solve_global();
  EXPECT_EQ(global.key, designer.global_scene_key());
  expect_same_thermal(other.evaluate_thermal(),               // cold: own global solve
                      other.evaluate_thermal(global),         // shared coarse field
                      "shared coarse solve vs cold");
}

TEST(ParallelSweep, CalibrationPlansAreBitIdenticalAcrossThreadCounts) {
  // Network-scale per-ring plan: large enough to span many pool chunks.
  const std::size_t rings = 100'000;
  std::vector<double> errors(rings);
  std::vector<std::size_t> clusters(rings);
  Rng rng(2026);
  for (std::size_t i = 0; i < rings; ++i) {
    errors[i] = rng.uniform(-6.0, 6.0);
    clusters[i] = i % 128;
  }
  const noc::CalibrationParams params;

  const auto per_ring_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    return noc::per_ring_plan(errors, params);
  };
  const auto serial = per_ring_at(1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = per_ring_at(threads);
    ASSERT_EQ(parallel.trims.size(), serial.trims.size());
    EXPECT_EQ(parallel.total_power, serial.total_power) << threads << " threads";
    EXPECT_EQ(parallel.heater_count, serial.heater_count) << threads << " threads";
    for (std::size_t i = 0; i < rings; ++i) {
      ASSERT_EQ(parallel.trims[i].misalignment, serial.trims[i].misalignment) << "ring " << i;
      ASSERT_EQ(parallel.trims[i].power, serial.trims[i].power) << "ring " << i;
      ASSERT_EQ(parallel.trims[i].uses_heater, serial.trims[i].uses_heater) << "ring " << i;
    }
  }

  const auto clustered_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    return noc::clustered_plan(errors, clusters, params);
  };
  const auto serial_clustered = clustered_at(1);
  const auto parallel_clustered = clustered_at(8);
  EXPECT_EQ(parallel_clustered.plan.total_power, serial_clustered.plan.total_power);
  EXPECT_EQ(parallel_clustered.worst_residual, serial_clustered.worst_residual);
}

TEST(ParallelSweep, ThreadedSolverIsBitIdenticalAcrossThreadCounts) {
  // A system big enough that SpMV and the reductions leave the serial
  // fallback and genuinely run chunked.
  const std::size_t n = util::kSerialCutoff + 4321;
  math::CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 4.0);
    if (i > 0) {
      builder.add(i, i - 1, -1.0);
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
    }
  }
  const math::CsrMatrix a = builder.build();
  math::Vector b(n);
  Rng rng(7);
  for (double& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }

  const auto solve_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    math::Vector x;
    math::SolverOptions options;
    options.preconditioner = math::PreconditionerKind::kChebyshev;
    const auto result = math::conjugate_gradient(a, b, x, options);
    EXPECT_TRUE(result.converged);
    return std::make_pair(x, result.iterations);
  };
  const auto [x1, iters1] = solve_at(1);
  const auto [x2, iters2] = solve_at(2);
  const auto [x8, iters8] = solve_at(8);
  EXPECT_EQ(iters1, iters2);
  EXPECT_EQ(iters1, iters8);
  expect_bit_identical(x1, x2, "CG solution, 2 threads vs serial");
  expect_bit_identical(x1, x8, "CG solution, 8 threads vs serial");

  // The production pairing: the stencil operator with ILU(0), whose sweeps
  // run as y-band pipelines past kSerialCutoff at more than one thread.
  const math::StencilOperator7 stencil = fixtures::diagonally_dominant_stencil(40, 30, 16, 11);
  ASSERT_GE(stencil.rows(), util::kSerialCutoff);
  math::Vector heat(stencil.rows());
  for (double& v : heat) {
    v = rng.uniform(0.0, 1.0);
  }
  const auto ilu0_solve_at = [&](std::size_t threads) {
    ScopedConcurrency budget(threads);
    math::Vector x;
    math::SolverOptions options;
    options.preconditioner = math::PreconditionerKind::kIlu0;
    const auto result = math::conjugate_gradient(stencil, heat, x, options);
    EXPECT_TRUE(result.converged);
    return std::make_pair(x, result.iterations);
  };
  const auto [t1, ilu_iters1] = ilu0_solve_at(1);
  const auto [t2, ilu_iters2] = ilu0_solve_at(2);
  const auto [t8, ilu_iters8] = ilu0_solve_at(8);
  EXPECT_EQ(ilu_iters1, ilu_iters2);
  EXPECT_EQ(ilu_iters1, ilu_iters8);
  expect_bit_identical(t1, t2, "stencil ILU(0) CG solution, 2 threads vs serial");
  expect_bit_identical(t1, t8, "stencil ILU(0) CG solution, 8 threads vs serial");
}

}  // namespace
}  // namespace photherm
