#include "noc/snr.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::noc {

using photonics::ChannelPlan;
using photonics::MicroRing;
using photonics::Photodetector;
using photonics::Taper;
using photonics::Vcsel;
using photonics::Waveguide;

namespace {
/// Crosstalk floor [W] so SNR stays finite when no interferer exists
/// (represents detector dark noise: -90 dBm).
constexpr double kNoiseFloor = 1e-12;
}  // namespace

const CommResult& NetworkResult::worst_comm() const {
  PH_REQUIRE(!comms.empty(), "no communications analysed");
  const CommResult* worst = &comms.front();
  for (const CommResult& c : comms) {
    if (c.snr_db < worst->snr_db) {
      worst = &c;
    }
  }
  return *worst;
}

SnrAnalyzer::SnrAnalyzer(RingTopology topology, SnrModelConfig config)
    : topology_(std::move(topology)), config_(std::move(config)) {}

NetworkResult SnrAnalyzer::analyze(const std::vector<Communication>& comms,
                                   const std::vector<double>& node_temperatures,
                                   double p_vcsel) const {
  const std::size_t n = topology_.node_count();
  PH_REQUIRE(node_temperatures.size() == n, "one temperature per ONI required");
  PH_REQUIRE(!comms.empty(), "no communications to analyse");

  const Vcsel vcsel(config_.vcsel);
  const Waveguide waveguide(config_.waveguide);
  const Taper taper(config_.taper);
  const Photodetector pd(config_.photodetector);
  const ChannelPlan plan(config_.channels);

  for (const Communication& c : comms) {
    PH_REQUIRE(c.src < n && c.dst < n, "communication endpoint out of range");
    PH_REQUIRE(c.channel < plan.size(), "communication channel out of range");
  }

  // One receiver ring design per channel: the configured ring tuned to the
  // channel's wavelength.
  std::vector<MicroRing> rings;
  rings.reserve(plan.size());
  for (std::size_t channel = 0; channel < plan.size(); ++channel) {
    photonics::MicroRingParams params = config_.microring;
    params.resonance = plan.wavelength(channel);
    rings.emplace_back(params);
  }

  // Receiver lookup: for each node, the comm indices whose destination MR
  // sits there (the walk keeps those on its own waveguide).
  std::vector<std::vector<std::size_t>> receivers_at(n);
  for (std::size_t i = 0; i < comms.size(); ++i) {
    receivers_at[comms[i].dst].push_back(i);
  }

  std::vector<CommResult> results(comms.size());
  std::vector<double> crosstalk(comms.size(), 0.0);

  // Emission pass: walk each communication along the ring, dropping power
  // at every receiver MR it passes (paper Sec. IV-C loss recursion).
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const Communication& c = comms[i];
    CommResult& r = results[i];
    r.comm = c;

    const double t_junction = node_temperatures[c.src] + config_.vcsel_self_heating;
    r.op_vcsel =
        vcsel.output_power(vcsel.current_for_dissipated_power(p_vcsel, t_junction), t_junction);
    r.op_net = taper.coupled_power(r.op_vcsel);

    // Emitted wavelength: the channel's design value plus the laser's own
    // thermal drift (~0.1 nm/degC, like the rings).
    const double lambda_emit = plan.wavelength(c.channel) + vcsel.emission_shift(t_junction);

    const Direction dir = OrnocAssigner::direction_of(c.waveguide);
    double p = r.op_net;
    // Walk the FULL ring, not just to the destination: the intended MR
    // drops most but not all of the power (thermal misalignment leaves a
    // leak), and the remainder keeps circulating, polluting downstream
    // same-wavelength receivers — the paper's wrap-around recursion
    // (Delta-lambda_k0 = Delta-lambda_kN in Sec. IV-C). Back at the source,
    // the injection point terminates the loop.
    for (std::size_t node = c.src;;) {
      const RingTopology::Hop hop = RingTopology::hop(node, n, dir);
      p *= waveguide.transmission(topology_.segment_length(hop.segment));
      node = hop.node;
      if (node == c.src) {
        break;
      }

      // Interact with every receiver MR on this waveguide at `node`.
      for (std::size_t rx : receivers_at[node]) {
        const Communication& owner = comms[rx];
        if (owner.waveguide != c.waveguide) {
          continue;
        }
        const MicroRing& ring = rings[owner.channel];
        const double t_node = node_temperatures[node];
        const double dropped = ring.dropped_power(p, lambda_emit, t_node);
        if (node == c.dst && rx == i) {
          r.signal_power = dropped;
        } else {
          crosstalk[rx] += dropped;
        }
        p *= ring.through_fraction(lambda_emit, t_node);
      }
    }
  }

  NetworkResult net;
  net.comms = std::move(results);
  net.worst_snr_db = std::numeric_limits<double>::infinity();
  net.min_signal_power = std::numeric_limits<double>::infinity();
  net.max_crosstalk_power = 0.0;
  for (std::size_t i = 0; i < net.comms.size(); ++i) {
    CommResult& r = net.comms[i];
    r.crosstalk_power = crosstalk[i];
    const double noise = std::max(crosstalk[i], kNoiseFloor);
    r.snr_db = ratio_db(std::max(r.signal_power, 1e-30), noise);
    r.detectable = pd.detects(r.signal_power);
    if (!r.detectable) {
      ++net.undetectable_count;
    }
    net.worst_snr_db = std::min(net.worst_snr_db, r.snr_db);
    net.min_signal_power = std::min(net.min_signal_power, r.signal_power);
    net.max_crosstalk_power = std::max(net.max_crosstalk_power, r.crosstalk_power);
  }
  return net;
}

}  // namespace photherm::noc
