#include "noc/topology.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace photherm::noc {

RingTopology::Hop RingTopology::hop(std::size_t node, std::size_t n, Direction dir) {
  // Clockwise, `node` leaves over its own segment; counter-clockwise, it
  // crosses the segment that joins its predecessor to it.
  if (dir == Direction::kClockwise) {
    return {(node + 1) % n, node};
  }
  const std::size_t previous = (node + n - 1) % n;
  return {previous, previous};
}

RingTopology RingTopology::uniform(std::size_t count, double perimeter) {
  PH_REQUIRE(count >= 2, "a ring needs at least two nodes");
  PH_REQUIRE(perimeter > 0.0, "perimeter must be positive");
  return RingTopology(
      std::vector<double>(count, perimeter / static_cast<double>(count)));
}

RingTopology::RingTopology(std::vector<double> segment_lengths)
    : segments_(std::move(segment_lengths)) {
  PH_REQUIRE(segments_.size() >= 2, "a ring needs at least two segments");
  for (double s : segments_) {
    PH_REQUIRE(s > 0.0, "segment lengths must be positive");
  }
}

double RingTopology::segment_length(std::size_t segment) const {
  PH_REQUIRE(segment < segments_.size(), "segment index out of range");
  return segments_[segment];
}

OrnocAssigner::OrnocAssigner(std::size_t node_count, std::size_t waveguide_count,
                             std::size_t channel_count)
    : nodes_(node_count), waveguides_(waveguide_count), channels_(channel_count) {
  PH_REQUIRE(node_count >= 2, "assigner needs at least two nodes");
  PH_REQUIRE(waveguide_count >= 1 && channel_count >= 1,
             "assigner needs waveguides and channels");
}

std::vector<bool> OrnocAssigner::arc_mask(std::size_t src, std::size_t dst,
                                          std::size_t waveguide) const {
  const Direction dir = direction_of(waveguide);
  std::vector<bool> mask(nodes_, false);
  for (std::size_t node = src; node != dst;) {
    const RingTopology::Hop hop = RingTopology::hop(node, nodes_, dir);
    mask[hop.segment] = true;
    node = hop.node;
  }
  return mask;
}

std::vector<std::size_t> OrnocAssigner::spectral_spread_order(std::size_t channel_count) {
  PH_REQUIRE(channel_count >= 1, "need at least one channel");
  std::vector<std::size_t> order;
  order.reserve(channel_count);
  std::vector<bool> used(channel_count, false);
  order.push_back(0);
  used[0] = true;
  while (order.size() < channel_count) {
    std::size_t best = 0;
    long best_distance = -1;
    for (std::size_t c = 0; c < channel_count; ++c) {
      if (used[c]) {
        continue;
      }
      long min_distance = static_cast<long>(channel_count);
      for (std::size_t chosen : order) {
        min_distance = std::min(
            min_distance, std::abs(static_cast<long>(c) - static_cast<long>(chosen)));
      }
      if (min_distance > best_distance) {
        best_distance = min_distance;
        best = c;
      }
    }
    order.push_back(best);
    used[best] = true;
  }
  return order;
}

std::vector<Communication> OrnocAssigner::assign(
    const std::vector<std::pair<std::size_t, std::size_t>>& requests) const {
  // occupancy[w][c] = segment usage mask; load[w] = occupied segment count.
  std::vector<std::vector<std::vector<bool>>> occupancy(
      waveguides_, std::vector<std::vector<bool>>(channels_, std::vector<bool>(nodes_, false)));
  std::vector<std::size_t> load(waveguides_, 0);
  const std::vector<std::size_t> channel_order = spectral_spread_order(channels_);

  std::vector<Communication> out;
  out.reserve(requests.size());
  for (const auto& [src, dst] : requests) {
    PH_REQUIRE(src < nodes_ && dst < nodes_, "request node out of range");
    PH_REQUIRE(src != dst, "self communication requested");

    // Waveguide preference: shorter-arc direction first, then lighter load
    // (spreads traffic so fewer communications co-propagate).
    std::vector<std::size_t> waveguide_order(waveguides_);
    for (std::size_t w = 0; w < waveguides_; ++w) {
      waveguide_order[w] = w;
    }
    const std::size_t cw_hops = (dst + nodes_ - src) % nodes_;
    const bool prefer_ccw = cw_hops > nodes_ - cw_hops;
    std::stable_sort(waveguide_order.begin(), waveguide_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const bool a_pref =
                           (direction_of(a) == Direction::kCounterClockwise) == prefer_ccw;
                       const bool b_pref =
                           (direction_of(b) == Direction::kCounterClockwise) == prefer_ccw;
                       if (a_pref != b_pref) {
                         return a_pref;
                       }
                       return load[a] < load[b];
                     });

    // Channel-major search in spectral-spread order: reuse the earliest
    // channels on disjoint arcs, and push overlapping communications far
    // apart on the WDM grid.
    bool placed = false;
    for (std::size_t ci = 0; ci < channels_ && !placed; ++ci) {
      const std::size_t c = channel_order[ci];
      for (std::size_t wi = 0; wi < waveguides_ && !placed; ++wi) {
        const std::size_t w = waveguide_order[wi];
        const std::vector<bool> mask = arc_mask(src, dst, w);
        bool conflict = false;
        for (std::size_t s = 0; s < nodes_; ++s) {
          if (mask[s] && occupancy[w][c][s]) {
            conflict = true;
            break;
          }
        }
        if (!conflict) {
          for (std::size_t s = 0; s < nodes_; ++s) {
            if (mask[s]) {
              occupancy[w][c][s] = true;
              ++load[w];
            }
          }
          out.push_back({src, dst, w, c});
          placed = true;
        }
      }
    }
    PH_REQUIRE(placed, "ORNoC capacity exhausted: add waveguides or channels");
  }
  return out;
}

bool OrnocAssigner::conflict_free(const std::vector<Communication>& comms) const {
  for (std::size_t i = 0; i < comms.size(); ++i) {
    for (std::size_t j = i + 1; j < comms.size(); ++j) {
      const Communication& a = comms[i];
      const Communication& b = comms[j];
      if (a.waveguide != b.waveguide || a.channel != b.channel) {
        continue;
      }
      const auto ma = arc_mask(a.src, a.dst, a.waveguide);
      const auto mb = arc_mask(b.src, b.dst, b.waveguide);
      for (std::size_t s = 0; s < nodes_; ++s) {
        if (ma[s] && mb[s]) {
          return false;
        }
      }
    }
  }
  return true;
}

std::vector<std::pair<std::size_t, std::size_t>> spread_requests(std::size_t node_count,
                                                                 std::size_t fanout) {
  PH_REQUIRE(node_count >= 2, "spread_requests needs at least two nodes");
  PH_REQUIRE(fanout >= 1 && fanout < node_count, "fanout must be in [1, node_count)");
  std::vector<std::pair<std::size_t, std::size_t>> requests;
  requests.reserve(node_count * fanout);
  for (std::size_t src = 0; src < node_count; ++src) {
    for (std::size_t f = 0; f < fanout; ++f) {
      // Destinations spread around the ring: offsets ~ (f+1) * N / (fanout+1)
      // rounded, at least 1, distinct by construction for fanout < N.
      std::size_t offset =
          ((f + 1) * node_count + (fanout + 1) / 2) / (fanout + 1);
      offset = std::max<std::size_t>(1, std::min(offset, node_count - 1));
      requests.push_back({src, (src + offset) % node_count});
    }
  }
  // Remove accidental duplicates caused by rounding.
  std::sort(requests.begin(), requests.end());
  requests.erase(std::unique(requests.begin(), requests.end()), requests.end());
  return requests;
}

}  // namespace photherm::noc
