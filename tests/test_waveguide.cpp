#include "photonics/waveguide.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::photonics {
namespace {

TEST(Waveguide, PropagationLossMatchesTable1) {
  // 0.5 dB/cm: 2 cm -> 1 dB -> x0.794.
  const Waveguide wg{WaveguideParams{}};
  EXPECT_NEAR(wg.loss_db(2e-2), 1.0, 1e-12);
  EXPECT_NEAR(wg.transmission(2e-2), 0.7943, 1e-4);
  EXPECT_DOUBLE_EQ(wg.transmission(0.0), 1.0);
}

TEST(Waveguide, PaperRingLengths) {
  // The three Fig. 11 cases: 18, 32.4 and 46.8 mm -> 0.9, 1.62, 2.34 dB.
  const Waveguide wg{WaveguideParams{}};
  EXPECT_NEAR(wg.loss_db(18e-3), 0.9, 1e-9);
  EXPECT_NEAR(wg.loss_db(32.4e-3), 1.62, 1e-9);
  EXPECT_NEAR(wg.loss_db(46.8e-3), 2.34, 1e-9);
}

TEST(Waveguide, MonotoneInLength) {
  const Waveguide wg{WaveguideParams{}};
  double previous = 1.0;
  for (double len = 1e-3; len <= 0.1; len *= 2.0) {
    const double t = wg.transmission(len);
    EXPECT_LT(t, previous);
    previous = t;
  }
}

TEST(Waveguide, Validation) {
  WaveguideParams params;
  params.propagation_loss_db_per_cm = -1.0;
  EXPECT_THROW(Waveguide{params}, Error);
  const Waveguide ok{WaveguideParams{}};
  EXPECT_THROW(ok.transmission(-1.0), Error);
}

TEST(Taper, CouplesSeventyPercent) {
  // Fig. 2: eta_coupling assumed 70 %.
  const Taper taper{TaperParams{}};
  EXPECT_DOUBLE_EQ(taper.coupled_power(1e-3), 0.7e-3);
  EXPECT_THROW(taper.coupled_power(-1.0), Error);
}

TEST(Taper, Validation) {
  TaperParams params;
  params.coupling_efficiency = 0.0;
  EXPECT_THROW(Taper{params}, Error);
  params.coupling_efficiency = 1.2;
  EXPECT_THROW(Taper{params}, Error);
}

}  // namespace
}  // namespace photherm::photonics
