#include "noc/topology.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace photherm::noc {
namespace {

/// Length of the arc from `src` to `dst` in `dir`, walked hop by hop.
double arc_length(const RingTopology& ring, std::size_t src, std::size_t dst, Direction dir) {
  double total = 0.0;
  for (std::size_t node = src; node != dst;) {
    const RingTopology::Hop hop = RingTopology::hop(node, ring.node_count(), dir);
    total += ring.segment_length(hop.segment);
    node = hop.node;
  }
  return total;
}

double perimeter(const RingTopology& ring) {
  double total = 0.0;
  for (std::size_t s = 0; s < ring.node_count(); ++s) {
    total += ring.segment_length(s);
  }
  return total;
}

TEST(RingTopology, UniformGeometry) {
  const auto ring = RingTopology::uniform(4, 18e-3);
  EXPECT_EQ(ring.node_count(), 4u);
  EXPECT_NEAR(perimeter(ring), 18e-3, 1e-12);
  EXPECT_NEAR(ring.segment_length(2), 4.5e-3, 1e-12);
  // Clockwise a node leaves over its own segment; counter-clockwise over the
  // segment from its predecessor, wrapping at node 0.
  const RingTopology::Hop cw = RingTopology::hop(3, 4, Direction::kClockwise);
  EXPECT_EQ(cw.node, 0u);
  EXPECT_EQ(cw.segment, 3u);
  const RingTopology::Hop ccw = RingTopology::hop(0, 4, Direction::kCounterClockwise);
  EXPECT_EQ(ccw.node, 3u);
  EXPECT_EQ(ccw.segment, 3u);
  EXPECT_NEAR(arc_length(ring, 0, 3, Direction::kClockwise), 13.5e-3, 1e-12);
  EXPECT_NEAR(arc_length(ring, 0, 3, Direction::kCounterClockwise), 4.5e-3, 1e-12);
}

TEST(RingTopology, ArcsComplementToPerimeter) {
  const auto ring = RingTopology::uniform(7, 10e-3);
  for (std::size_t s = 0; s < 7; ++s) {
    for (std::size_t d = 0; d < 7; ++d) {
      if (s == d) {
        continue;
      }
      const double cw = arc_length(ring, s, d, Direction::kClockwise);
      const double ccw = arc_length(ring, s, d, Direction::kCounterClockwise);
      EXPECT_NEAR(cw + ccw, perimeter(ring), 1e-12);
    }
  }
}

TEST(RingTopology, NonUniformSegments) {
  const RingTopology ring({1e-3, 2e-3, 3e-3});
  EXPECT_NEAR(perimeter(ring), 6e-3, 1e-15);
  EXPECT_NEAR(arc_length(ring, 1, 0, Direction::kClockwise), 5e-3, 1e-15);
  EXPECT_NEAR(arc_length(ring, 1, 0, Direction::kCounterClockwise), 1e-3, 1e-15);
}

TEST(RingTopology, Validation) {
  EXPECT_THROW(RingTopology::uniform(1, 1.0), Error);
  EXPECT_THROW(RingTopology({1e-3}), Error);
  EXPECT_THROW(RingTopology({1e-3, -1e-3}), Error);
  const auto ring = RingTopology::uniform(3, 1.0);
  EXPECT_THROW(ring.segment_length(3), Error);
}

TEST(OrnocAssigner, AssignsConflictFree) {
  const OrnocAssigner assigner(8, 4, 8);
  const auto requests = spread_requests(8, 3);
  const auto comms = assigner.assign(requests);
  EXPECT_EQ(comms.size(), requests.size());
  EXPECT_TRUE(assigner.conflict_free(comms));
}

TEST(OrnocAssigner, ReusesWavelengthsOnDisjointArcs) {
  // Neighbour-to-neighbour communications around a ring all fit on one
  // (waveguide, wavelength) pair — the defining ORNoC property.
  const OrnocAssigner assigner(6, 1, 8);
  std::vector<std::pair<std::size_t, std::size_t>> requests;
  for (std::size_t i = 0; i < 6; ++i) {
    requests.push_back({i, (i + 1) % 6});
  }
  const auto comms = assigner.assign(requests);
  for (const auto& c : comms) {
    EXPECT_EQ(c.channel, comms.front().channel);
    EXPECT_EQ(c.waveguide, 0u);
  }
  EXPECT_TRUE(assigner.conflict_free(comms));
}

TEST(OrnocAssigner, CapacityExhaustionThrows) {
  // 1 waveguide, 1 channel cannot carry two overlapping arcs.
  const OrnocAssigner assigner(4, 1, 1);
  EXPECT_THROW(assigner.assign({{0, 2}, {1, 3}}), Error);
}

TEST(OrnocAssigner, DirectionAlternatesPerWaveguide) {
  EXPECT_EQ(OrnocAssigner::direction_of(0), Direction::kClockwise);
  EXPECT_EQ(OrnocAssigner::direction_of(1), Direction::kCounterClockwise);
  EXPECT_EQ(OrnocAssigner::direction_of(2), Direction::kClockwise);
}

TEST(OrnocAssigner, SpectralSpreadOrder) {
  const auto order = OrnocAssigner::spectral_spread_order(8);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 7u);  // farthest from 0
  // A permutation of 0..7.
  std::vector<bool> seen(8, false);
  for (std::size_t c : order) {
    ASSERT_LT(c, 8u);
    EXPECT_FALSE(seen[c]);
    seen[c] = true;
  }
  // The first half of the order is spread at least 2 apart pairwise.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_GE(std::abs(static_cast<long>(order[i]) - static_cast<long>(order[j])), 2);
    }
  }
}

TEST(OrnocAssigner, RejectsSelfCommunication) {
  const OrnocAssigner assigner(4, 2, 2);
  EXPECT_THROW(assigner.assign({{1, 1}}), Error);
}

TEST(SpreadRequests, CoversAllSourcesWithDistinctDestinations) {
  const auto requests = spread_requests(12, 3);
  EXPECT_EQ(requests.size(), 36u);
  for (const auto& [s, d] : requests) {
    EXPECT_NE(s, d);
    EXPECT_LT(s, 12u);
    EXPECT_LT(d, 12u);
  }
  EXPECT_THROW(spread_requests(4, 4), Error);
  EXPECT_THROW(spread_requests(1, 1), Error);
}

class FanoutSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FanoutSweep, AssignmentsStayConflictFree) {
  const std::size_t nodes = 12;
  const OrnocAssigner assigner(nodes, 4, 8);
  const auto comms = assigner.assign(spread_requests(nodes, GetParam()));
  EXPECT_TRUE(assigner.conflict_free(comms));
}

INSTANTIATE_TEST_SUITE_P(Fanouts, FanoutSweep, ::testing::Values(1u, 2u, 3u, 4u, 6u));

}  // namespace
}  // namespace photherm::noc
