#include "noc/snr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::noc {
namespace {

SnrModelConfig default_model() { return core::make_snr_model(); }

/// 4-node, 18 mm ring with one neighbour communication per node, all on
/// the same waveguide/wavelength (disjoint arcs).
struct Rig {
  RingTopology ring = RingTopology::uniform(4, 18e-3);
  std::vector<Communication> comms;
  SnrModelConfig model = default_model();

  Rig() {
    for (std::size_t i = 0; i < 4; ++i) {
      comms.push_back({i, (i + 1) % 4, 0, 0});
    }
  }
};

TEST(Snr, UniformTemperatureGivesCleanLinks) {
  Rig rig;
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  const auto result = analyzer.analyze(rig.comms, {50.0, 50.0, 50.0, 50.0}, 3.6e-3);
  // Perfect alignment: every link drops ~everything at its destination; no
  // power continues to pollute downstream same-wavelength receivers.
  for (const auto& c : result.comms) {
    EXPECT_GT(c.snr_db, 40.0);
    EXPECT_TRUE(c.detectable);
    EXPECT_GT(c.signal_power, 0.0);
  }
  EXPECT_EQ(result.undetectable_count, 0u);
}

TEST(Snr, TemperatureGradientCreatesCrosstalk) {
  Rig rig;
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  const auto uniform = analyzer.analyze(rig.comms, {50, 50, 50, 50}, 3.6e-3);
  const auto skewed = analyzer.analyze(rig.comms, {50, 53, 56, 53}, 3.6e-3);
  EXPECT_LT(skewed.worst_snr_db, uniform.worst_snr_db);
  EXPECT_GT(skewed.max_crosstalk_power, uniform.max_crosstalk_power);
}

TEST(Snr, MonotoneDegradationWithGradient) {
  Rig rig;
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  double previous = 1e9;
  for (double dt : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    const auto result = analyzer.analyze(
        rig.comms, {50.0, 50.0 + dt, 50.0 + dt / 2, 50.0 + dt / 4}, 3.6e-3);
    EXPECT_LE(result.worst_snr_db, previous + 1e-9);
    previous = result.worst_snr_db;
  }
}

TEST(Snr, SevenPointSevenDegreesHalvesSignal) {
  // Sec. IV-C anchor: a 7.75 degC source/receiver difference misaligns by
  // 0.775 nm and the intended MR only drops half the power.
  Rig rig;
  rig.comms = {{0, 1, 0, 0}};
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  const auto aligned = analyzer.analyze(rig.comms, {50, 50, 50, 50}, 3.6e-3);
  // The source VCSEL emission tracks its own ONI; heat the *receiver* only.
  const auto detuned = analyzer.analyze(rig.comms, {50, 57.75, 50, 50}, 3.6e-3);
  EXPECT_NEAR(detuned.comms[0].signal_power / aligned.comms[0].signal_power, 0.5, 0.02);
}

TEST(Snr, LongerRingLosesSignal) {
  const SnrModelConfig model = default_model();
  std::vector<Communication> comms{{0, 2, 0, 0}};
  const SnrAnalyzer short_ring(RingTopology::uniform(4, 18e-3), model);
  const SnrAnalyzer long_ring(RingTopology::uniform(4, 46.8e-3), model);
  const std::vector<double> temps(4, 50.0);
  const double s_short = short_ring.analyze(comms, temps, 3.6e-3).comms[0].signal_power;
  const double s_long = long_ring.analyze(comms, temps, 3.6e-3).comms[0].signal_power;
  EXPECT_GT(s_short, s_long);
  // Propagation-loss ratio for the 2-hop arc: 0.5 dB/cm x (23.4-9) mm.
  EXPECT_NEAR(ratio_db(s_short, s_long), 0.5 * (23.4 - 9.0) / 10.0, 0.05);
}

TEST(Snr, HotterSourceEmitsLessPower) {
  Rig rig;
  rig.comms = {{0, 1, 0, 0}};
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  const auto cool = analyzer.analyze(rig.comms, {45, 45, 45, 45}, 3.6e-3);
  const auto hot = analyzer.analyze(rig.comms, {65, 65, 65, 65}, 3.6e-3);
  EXPECT_GT(cool.comms[0].op_vcsel, hot.comms[0].op_vcsel);
  // Both uniform: alignment perfect, so SNR stays high even when hot.
  EXPECT_GT(hot.comms[0].snr_db, 40.0);
}

TEST(Snr, TaperCouplingApplied) {
  Rig rig;
  rig.comms = {{0, 1, 0, 0}};
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  const auto result = analyzer.analyze(rig.comms, {50, 50, 50, 50}, 3.6e-3);
  EXPECT_NEAR(result.comms[0].op_net,
              0.7 * result.comms[0].op_vcsel, 1e-15);
}

TEST(Snr, AdjacentChannelCrosstalkSmallAtWideSpacing) {
  // Two co-propagating communications on neighbouring WDM channels: with
  // the 6.4 nm default spacing the foreign drop is tiny.
  SnrModelConfig model = default_model();
  std::vector<Communication> comms{{0, 2, 0, 0}, {1, 2, 0, 1}};
  const SnrAnalyzer analyzer(RingTopology::uniform(4, 18e-3), model);
  const auto result = analyzer.analyze(comms, {50, 50, 50, 50}, 3.6e-3);
  // Lorentzian drop two half-spacings away: ~1.4 % -> SNR floor ~18 dB.
  for (const auto& c : result.comms) {
    EXPECT_GT(c.snr_db, 15.0);
  }
  EXPECT_GT(result.max_crosstalk_power, 0.0);  // but it exists
}

TEST(Snr, NoiseFloorKeepsSnrFinite) {
  Rig rig;
  rig.comms = {{0, 1, 0, 0}};
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  const auto result = analyzer.analyze(rig.comms, {50, 50, 50, 50}, 3.6e-3);
  EXPECT_TRUE(std::isfinite(result.comms[0].snr_db));
  EXPECT_DOUBLE_EQ(result.worst_snr_db, result.comms[0].snr_db);
}

TEST(Snr, Validation) {
  Rig rig;
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  EXPECT_THROW(analyzer.analyze(rig.comms, {50, 50}, 3.6e-3), Error);
  EXPECT_THROW(analyzer.analyze({}, {50, 50, 50, 50}, 3.6e-3), Error);
  std::vector<Communication> bad{{0, 9, 0, 0}};
  EXPECT_THROW(analyzer.analyze(bad, {50, 50, 50, 50}, 3.6e-3), Error);
  std::vector<Communication> bad_channel{{0, 1, 0, 99}};
  EXPECT_THROW(analyzer.analyze(bad_channel, {50, 50, 50, 50}, 3.6e-3), Error);
  EXPECT_THROW(analyzer.analyze(rig.comms, {50, 50, 50, 50}, -1e-3), Error);
}

TEST(Snr, WorstCommIdentified) {
  Rig rig;
  const SnrAnalyzer analyzer(rig.ring, rig.model);
  const auto result = analyzer.analyze(rig.comms, {50, 52, 55, 51}, 3.6e-3);
  const auto& worst = result.worst_comm();
  for (const auto& c : result.comms) {
    EXPECT_GE(c.snr_db, worst.snr_db);
  }
}

}  // namespace
}  // namespace photherm::noc
