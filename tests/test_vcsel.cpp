#include "photonics/vcsel.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::photonics {
namespace {

TEST(Vcsel, PaperEfficiencyAnchors) {
  // Sec. III-C: wall-plug efficiency drops from ~15 % at 40 degC to ~4 %
  // at 60 degC.
  const Vcsel vcsel{VcselParams{}};
  const double eta40 = vcsel.wall_plug_efficiency(5e-3, 40.0);
  const double eta60 = vcsel.wall_plug_efficiency(5e-3, 60.0);
  EXPECT_NEAR(eta40, 0.15, 0.03);
  EXPECT_NEAR(eta60, 0.04, 0.015);
}

TEST(Vcsel, EfficiencyDecreasesWithTemperature) {
  const Vcsel vcsel{VcselParams{}};
  double previous = 1.0;
  for (double t = 10.0; t <= 70.0; t += 10.0) {
    const double eta = vcsel.wall_plug_efficiency(6e-3, t);
    EXPECT_LT(eta, previous);
    EXPECT_GE(eta, 0.0);
    previous = eta;
  }
}

TEST(Vcsel, ThresholdBehaviour) {
  const Vcsel vcsel{VcselParams{}};
  // Minimal threshold at the optimum temperature, rising on both sides.
  const double t_opt = vcsel.params().t_th_opt;
  EXPECT_LT(vcsel.threshold_current(t_opt), vcsel.threshold_current(t_opt + 40.0));
  EXPECT_LT(vcsel.threshold_current(t_opt), vcsel.threshold_current(t_opt - 40.0));
  // Below threshold: no light, all power dissipated.
  const double i_sub = 0.5 * vcsel.threshold_current(30.0);
  EXPECT_DOUBLE_EQ(vcsel.output_power(i_sub, 30.0), 0.0);
  EXPECT_DOUBLE_EQ(vcsel.dissipated_power(i_sub, 30.0), vcsel.electrical_power(i_sub));
}

TEST(Vcsel, OutputLinearAboveThreshold) {
  const Vcsel vcsel{VcselParams{}};
  const double t = 30.0;
  const double ith = vcsel.threshold_current(t);
  const double p1 = vcsel.output_power(ith + 2e-3, t);
  const double p2 = vcsel.output_power(ith + 4e-3, t);
  EXPECT_NEAR(p2, 2.0 * p1, 1e-12);
}

TEST(Vcsel, EnergyConservation) {
  const Vcsel vcsel{VcselParams{}};
  for (double i : {1e-3, 5e-3, 10e-3}) {
    for (double t : {20.0, 50.0}) {
      const double elec = vcsel.electrical_power(i);
      const double out = vcsel.output_power(i, t);
      const double diss = vcsel.dissipated_power(i, t);
      EXPECT_NEAR(elec, out + diss, 1e-15);
      EXPECT_GT(diss, 0.0);
      EXPECT_LT(out, elec);
    }
  }
}

TEST(Vcsel, CurrentForDissipatedPowerInverts) {
  const Vcsel vcsel{VcselParams{}};
  for (double p : {0.5e-3, 2e-3, 6e-3}) {
    const double i = vcsel.current_for_dissipated_power(p, 45.0);
    EXPECT_NEAR(vcsel.dissipated_power(i, 45.0), p, 1e-9);
  }
  EXPECT_DOUBLE_EQ(vcsel.current_for_dissipated_power(0.0, 45.0), 0.0);
  EXPECT_THROW(vcsel.current_for_dissipated_power(10.0, 45.0), Error);  // out of range
}

TEST(Vcsel, SelfHeatedOutputRollsOver) {
  // Fig. 8-c shape: at high base temperature the emitted power versus
  // dissipated power bends over (eventually decreasing).
  const Vcsel vcsel{VcselParams{}};
  const double r_th = 1.8e3;
  const double low = vcsel.output_power_for_dissipated(4e-3, 60.0, r_th);
  const double high = vcsel.output_power_for_dissipated(16e-3, 60.0, r_th);
  const double gain_low = low / 4e-3;
  const double gain_high = high / 16e-3;
  EXPECT_LT(gain_high, gain_low);  // diminishing returns
}

TEST(Vcsel, EmissionWavelengthShift) {
  const Vcsel vcsel{VcselParams{}};
  EXPECT_DOUBLE_EQ(vcsel.emission_shift(25.0), 0.0);
  EXPECT_NEAR(vcsel.emission_shift(35.0), 1e-9, 1e-15);  // 0.1 nm/degC * 10 degC
}

TEST(Vcsel, ParameterValidation) {
  VcselParams p;
  p.eta_d_max = 1.5;
  EXPECT_THROW(Vcsel{p}, Error);
  p = VcselParams{};
  p.ith0 = -1.0;
  EXPECT_THROW(Vcsel{p}, Error);
  p = VcselParams{};
  p.max_current = 0.1e-3;  // below threshold
  EXPECT_THROW(Vcsel{p}, Error);
  const Vcsel ok{VcselParams{}};
  EXPECT_THROW(ok.output_power(-1e-3, 30.0), Error);
  EXPECT_THROW(ok.voltage(-1.0), Error);
}

TEST(Vcsel, WallPlugNeverExceedsUnity) {
  const Vcsel vcsel{VcselParams{}};
  for (double i = 0.5e-3; i <= 15e-3; i += 0.5e-3) {
    for (double t = 0.0; t <= 80.0; t += 5.0) {
      const double eta = vcsel.wall_plug_efficiency(i, t);
      EXPECT_GE(eta, 0.0);
      EXPECT_LT(eta, 1.0);
    }
  }
}

}  // namespace
}  // namespace photherm::photonics
