#include "photonics/spectrum.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace photherm::photonics {
namespace {

TEST(ChannelPlan, CenteredAroundWindow) {
  ChannelPlanParams params;
  params.center = 1550e-9;
  params.spacing = 2e-9;
  params.channel_count = 4;
  const ChannelPlan plan{params};
  // Channels at -3, -1, +1, +3 half-spacings around the centre.
  EXPECT_NEAR(plan.wavelength(0), 1547e-9, 1e-15);
  EXPECT_NEAR(plan.wavelength(1), 1549e-9, 1e-15);
  EXPECT_NEAR(plan.wavelength(2), 1551e-9, 1e-15);
  EXPECT_NEAR(plan.wavelength(3), 1553e-9, 1e-15);
  // Mean equals the centre.
  double mean = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    mean += plan.wavelength(i);
  }
  EXPECT_NEAR(mean / 4.0, 1550e-9, 1e-15);
}

TEST(ChannelPlan, OddCountPutsChannelOnCenter) {
  ChannelPlanParams params;
  params.channel_count = 5;
  params.spacing = 1e-9;
  const ChannelPlan plan{params};
  EXPECT_NEAR(plan.wavelength(2), params.center, 1e-15);
}

TEST(ChannelPlan, UniformSpacing) {
  const ChannelPlan plan{ChannelPlanParams{}};
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_NEAR(plan.wavelength(i) - plan.wavelength(i - 1), plan.params().spacing, 1e-15);
  }
}

TEST(ChannelPlan, Validation) {
  ChannelPlanParams params;
  params.channel_count = 0;
  EXPECT_THROW(ChannelPlan{params}, Error);
  params = ChannelPlanParams{};
  params.spacing = 0.0;
  EXPECT_THROW(ChannelPlan{params}, Error);
  const ChannelPlan ok{ChannelPlanParams{}};
  EXPECT_THROW(ok.wavelength(99), Error);
}

}  // namespace
}  // namespace photherm::photonics
