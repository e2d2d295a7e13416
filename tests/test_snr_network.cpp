/// Network-level SNR scenarios: device-option interplay (FSR aliasing,
/// athermal rings, wavelength-locked lasers, laser drive) on assigned
/// ORNoC traffic — complements the per-mechanism tests in test_snr.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <utility>

#include "core/tech.hpp"
#include "noc/snr.hpp"
#include "util/error.hpp"

namespace photherm::noc {
namespace {

struct Net {
  RingTopology ring = RingTopology::uniform(8, 32.4e-3);
  std::vector<Communication> comms;
  Net() {
    const OrnocAssigner assigner(8, 4, 8);
    comms = assigner.assign(spread_requests(8, 3));
  }
};

std::vector<double> skewed_temps(double base, double spread) {
  std::vector<double> t(8);
  for (std::size_t i = 0; i < 8; ++i) {
    t[i] = base + spread * static_cast<double>(i % 4) / 3.0;
  }
  return t;
}

TEST(SnrNetwork, HigherCurrentRaisesSignal) {
  // A laser dissipating more power runs at a higher current and emits more.
  Net net;
  const SnrAnalyzer analyzer(net.ring, core::make_snr_model());
  const auto temps = skewed_temps(55.0, 2.0);
  const auto a = analyzer.analyze(net.comms, temps, 1.5e-3);
  const auto b = analyzer.analyze(net.comms, temps, 4.5e-3);
  EXPECT_GT(b.min_signal_power, a.min_signal_power);
}

TEST(SnrNetwork, AthermalRingsWithDriftingLasersBreakTracking) {
  // The paper's design relies on common-mode drift of VCSELs and rings; an
  // athermal ring under a hot (drifted) laser is misaligned by the full
  // absolute shift. At 55 degC (30 degC above reference) that is 3 nm.
  Net net;
  SnrModelConfig drifted = core::make_snr_model();
  drifted.microring.athermal_factor = 0.0;
  const SnrAnalyzer analyzer(net.ring, drifted);
  const auto result = analyzer.analyze(net.comms, skewed_temps(55.0, 0.0), 3.6e-3);
  // Intended drop at 3 nm detuning: ~6 % -> severe signal loss.
  const SnrAnalyzer baseline(net.ring, core::make_snr_model());
  const auto ref = baseline.analyze(net.comms, skewed_temps(55.0, 0.0), 3.6e-3);
  EXPECT_LT(result.min_signal_power, 0.2 * ref.min_signal_power);
}

TEST(SnrNetwork, AthermalPlusLockedLasersBeatBaselineUnderGradient) {
  Net net;
  SnrModelConfig fixed = core::make_snr_model();
  fixed.microring.athermal_factor = 0.0;
  fixed.vcsel.dlambda_dt = 0.0;
  const auto temps = skewed_temps(55.0, 4.0);  // strong inter-ONI gradient
  const auto locked = SnrAnalyzer(net.ring, fixed).analyze(net.comms, temps, 3.6e-3);
  const auto baseline = SnrAnalyzer(net.ring, core::make_snr_model())
                            .analyze(net.comms, temps, 3.6e-3);
  EXPECT_GT(locked.worst_snr_db, baseline.worst_snr_db);
}

TEST(SnrNetwork, FsrAliasingAddsCrosstalk) {
  // With an 18 nm FSR, channels ~3 spacings away alias back near a
  // resonance order and couple more strongly than without FSR.
  Net net;
  SnrModelConfig with_fsr = core::make_snr_model();
  with_fsr.microring.fsr = 19.2e-9;  // 3 channel spacings of 6.4 nm
  const auto temps = skewed_temps(55.0, 1.0);
  const auto aliased = SnrAnalyzer(net.ring, with_fsr).analyze(net.comms, temps, 3.6e-3);
  const auto plain = SnrAnalyzer(net.ring, core::make_snr_model())
                         .analyze(net.comms, temps, 3.6e-3);
  EXPECT_GE(aliased.max_crosstalk_power, plain.max_crosstalk_power);
  EXPECT_LE(aliased.worst_snr_db, plain.worst_snr_db + 1e-9);
}

TEST(SnrNetwork, SecondOrderFiltersCutAdjacentChannelCrosstalk) {
  // With wavelength-locked devices (no thermal misalignment), higher-order
  // filters strictly reduce the co-propagation crosstalk floor.
  Net net;
  SnrModelConfig locked = core::make_snr_model();
  locked.microring.athermal_factor = 0.0;
  locked.vcsel.dlambda_dt = 0.0;
  SnrModelConfig second = locked;
  second.microring.filter_order = 2;
  const auto temps = skewed_temps(55.0, 3.0);
  const auto order1 = SnrAnalyzer(net.ring, locked).analyze(net.comms, temps, 3.6e-3);
  const auto order2 = SnrAnalyzer(net.ring, second).analyze(net.comms, temps, 3.6e-3);
  EXPECT_LT(order2.max_crosstalk_power, order1.max_crosstalk_power);
  EXPECT_GT(order2.worst_snr_db, order1.worst_snr_db);
}

TEST(SnrNetwork, ChainMatchesRecordedValues) {
  // golden/snr_chain.csv holds every CommResult quantity and the network
  // summary of five model variants (FSR, filter order, athermal cladding and
  // laser self-heating each change one branch), written with %.17g by an
  // implementation that computed the ring, laser-drift and hop formulas
  // inline rather than through the device models. Each value must hold to
  // 1e-12 relative, and a recorded zero to 1e-24 (1e-12 of the noise floor).
  std::vector<std::pair<std::string, SnrModelConfig>> variants;
  variants.emplace_back("default", core::make_snr_model());
  variants.emplace_back("fsr_18nm", core::make_snr_model());
  variants.back().second.microring.fsr = 18e-9;
  variants.emplace_back("order_2", core::make_snr_model());
  variants.back().second.microring.filter_order = 2;
  variants.emplace_back("athermal_0.3", core::make_snr_model());
  variants.back().second.microring.athermal_factor = 0.3;
  variants.emplace_back("self_heating_4.2", core::make_snr_model());
  variants.back().second.vcsel_self_heating = 4.2;

  Net net;
  const auto temps = skewed_temps(55.0, 3.0);
  std::vector<std::pair<std::string, double>> actual;
  for (const auto& [name, model] : variants) {
    const NetworkResult r = SnrAnalyzer(net.ring, model).analyze(net.comms, temps, 3.6e-3);
    ASSERT_EQ(r.comms.size(), net.comms.size());
    for (std::size_t i = 0; i < r.comms.size(); ++i) {
      const CommResult& c = r.comms[i];
      EXPECT_EQ(c.comm.src, net.comms[i].src);
      EXPECT_EQ(c.comm.dst, net.comms[i].dst);
      EXPECT_EQ(c.comm.waveguide, net.comms[i].waveguide);
      EXPECT_EQ(c.comm.channel, net.comms[i].channel);
      const std::string prefix = name + ",comm" + std::to_string(i) + ".";
      actual.emplace_back(prefix + "op_vcsel", c.op_vcsel);
      actual.emplace_back(prefix + "op_net", c.op_net);
      actual.emplace_back(prefix + "signal_power", c.signal_power);
      actual.emplace_back(prefix + "crosstalk_power", c.crosstalk_power);
      actual.emplace_back(prefix + "snr_db", c.snr_db);
      actual.emplace_back(prefix + "detectable", c.detectable ? 1.0 : 0.0);
    }
    actual.emplace_back(name + ",worst_snr_db", r.worst_snr_db);
    actual.emplace_back(name + ",min_signal_power", r.min_signal_power);
    actual.emplace_back(name + ",max_crosstalk_power", r.max_crosstalk_power);
    actual.emplace_back(name + ",undetectable_count", static_cast<double>(r.undetectable_count));
  }

  std::ifstream golden(std::string(PHOTHERM_TESTS_DIR) + "/golden/snr_chain.csv");
  ASSERT_TRUE(golden) << "cannot open golden/snr_chain.csv";
  std::string line;
  ASSERT_TRUE(std::getline(golden, line));
  ASSERT_EQ(line, "variant,field,value");
  std::size_t row = 0;
  while (std::getline(golden, line)) {
    ASSERT_LT(row, actual.size()) << "golden has more rows than the analyzer produced";
    const std::size_t comma = line.rfind(',');
    const double expected = std::stod(line.substr(comma + 1));
    const auto& [key, value] = actual[row++];
    ASSERT_EQ(line.substr(0, comma), key);
    const double tolerance = expected == 0.0 ? 1e-24 : 1e-12 * std::abs(expected);
    EXPECT_NEAR(value, expected, tolerance) << key;
  }
  EXPECT_EQ(row, actual.size());
}

class LoadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LoadSweep, MoreTrafficNeverImprovesWorstSnr) {
  const std::size_t nodes = 8;
  const RingTopology ring = RingTopology::uniform(nodes, 32.4e-3);
  const OrnocAssigner assigner(nodes, 4, 8);
  const SnrAnalyzer analyzer(ring, core::make_snr_model());
  const auto temps = skewed_temps(55.0, 2.0);

  const auto light = assigner.assign(spread_requests(nodes, 1));
  const auto heavy = assigner.assign(spread_requests(nodes, GetParam()));
  const auto a = analyzer.analyze(light, temps, 3.6e-3);
  const auto b = analyzer.analyze(heavy, temps, 3.6e-3);
  EXPECT_LE(b.worst_snr_db, a.worst_snr_db + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, LoadSweep, ::testing::Values(2u, 3u, 5u, 7u));

}  // namespace
}  // namespace photherm::noc
