/// \file topology.hpp
/// \brief ORNoC ring topology and channel assignment (paper Sec. III-A,
/// ref [2]). ORNoC is a ring: a communication from ONI s to ONI d occupies
/// one wavelength on one waveguide along the arc s -> d; the same
/// wavelength can be *reused* on non-overlapping arcs of the same
/// waveguide, which is what makes the network arbitration-free.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace photherm::noc {

/// Traversal direction of a waveguide around the ring.
enum class Direction { kClockwise, kCounterClockwise };

/// Ring of N ONIs. Segment i is the waveguide arc from node i to node
/// (i+1) % N in clockwise orientation.
class RingTopology {
 public:
  /// One step from a node to its neighbour.
  struct Hop {
    std::size_t node;     ///< the neighbour reached
    std::size_t segment;  ///< clockwise id of the segment crossed
  };

  /// Step from `node` to its neighbour in `dir` on a ring of `n` nodes.
  static Hop hop(std::size_t node, std::size_t n, Direction dir);

  /// Uniform ring: `count` nodes, `perimeter` total length.
  static RingTopology uniform(std::size_t count, double perimeter);

  /// Explicit segment lengths (size = node count).
  explicit RingTopology(std::vector<double> segment_lengths);

  std::size_t node_count() const { return segments_.size(); }

  /// Length of clockwise segment `segment` [m].
  double segment_length(std::size_t segment) const;

 private:
  std::vector<double> segments_;
};

/// One point-to-point communication Csd with its channel assignment.
struct Communication {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t waveguide = 0;
  std::size_t channel = 0;  ///< index into the ChannelPlan
};

/// ORNoC channel assignment: greedy first-fit of (waveguide, wavelength)
/// pairs such that arcs sharing a waveguide and wavelength never overlap.
/// Waveguides alternate direction (even = clockwise, odd = counter-clockwise)
/// as in the Fig. 1-b layout.
class OrnocAssigner {
 public:
  OrnocAssigner(std::size_t node_count, std::size_t waveguide_count, std::size_t channel_count);

  static Direction direction_of(std::size_t waveguide) {
    return waveguide % 2 == 0 ? Direction::kClockwise : Direction::kCounterClockwise;
  }

  /// Assign every (src, dst) request; throws SpecError when capacity is
  /// exhausted. Returns the communications with waveguide/channel set.
  std::vector<Communication> assign(const std::vector<std::pair<std::size_t, std::size_t>>& requests) const;

  /// Verify an assignment is conflict-free. assign() does not call it: it is
  /// the tests' oracle for assign().
  bool conflict_free(const std::vector<Communication>& comms) const;

  /// Channel iteration order that maximises spectral distance between the
  /// first channels handed out (greedy farthest-point on the index line),
  /// so overlapping communications land far apart on the WDM grid.
  static std::vector<std::size_t> spectral_spread_order(std::size_t channel_count);

 private:
  /// Segments covered by the arc src->dst on `waveguide` (clockwise ids).
  std::vector<bool> arc_mask(std::size_t src, std::size_t dst, std::size_t waveguide) const;

  std::size_t nodes_;
  std::size_t waveguides_;
  std::size_t channels_;
};

/// All-to-all-lite request pattern used by the case study: every node sends
/// to `fanout` destinations spread around the ring (next node, quarter,
/// half, three-quarter for fanout=4).
std::vector<std::pair<std::size_t, std::size_t>> spread_requests(std::size_t node_count,
                                                                 std::size_t fanout);

}  // namespace photherm::noc
