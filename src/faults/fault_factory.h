// Generative models for each corruption root cause.
//
// The factory samples faults whose (a) relative frequency follows the
// Table 2 contribution mix, (b) loss rates follow the Table 1 corruption
// bucket distribution, and (c) optical symptoms follow the Table 2
// High/Low power signatures. These three marginals are everything the
// paper's algorithms observe, so matching them preserves the behaviour
// of the system under test even though the underlying hardware is
// synthetic (see DESIGN.md, substitution table).
#pragma once

#include "common/rng.h"
#include "faults/fault.h"
#include "telemetry/optical.h"
#include "topology/topology.h"

namespace corropt::faults {

struct FaultMixParams {
  // Root-cause mix. Values are normalized mid-points of the ranges in
  // Table 2 (17-57%, 14-48%, <1%, 6-45%, 10-26%).
  double p_contamination = 0.37;
  double p_damaged_fiber = 0.30;
  double p_decaying_transmitter = 0.008;
  double p_bad_transceiver = 0.21;
  double p_shared_component = 0.112;

  // Fraction of contamination faults that cause back reflections instead
  // of attenuation: RxPower stays high yet packets corrupt (Section 4,
  // root cause 1). These defeat power-based diagnosis and bound the
  // recommendation engine's accuracy below 100%.
  double p_back_reflection = 0.15;

  // Fraction of damaged-fiber faults whose corruption exceeds the lossy
  // threshold in BOTH directions. Both RxPowers always drop (Figure 9),
  // but the paper observes only 8.2% of corrupting links corrupt
  // bidirectionally (Section 3) while fiber damage contributes 14-48% of
  // faults — so most damaged fibers must still decode one direction.
  double p_fiber_bidirectional = 0.25;
};

class FaultFactory {
 public:
  FaultFactory(const topology::Topology& topo, FaultMixParams params,
               common::Rng& rng);

  // Samples a root cause from the mix and builds a fault on `link`.
  // Shared-component faults extend to the link's breakout peers (or, when
  // ungrouped, to neighbouring uplinks of the same switch).
  [[nodiscard]] Fault make_random_fault(LinkId link, SimTime onset);

  // Builds a fault with a specific root cause (used by tests and the
  // case-study benches).
  [[nodiscard]] Fault make_fault(LinkId link, RootCause cause,
                                 SimTime onset);

  // Draws a loss rate from the Table 1 corruption bucket distribution.
  [[nodiscard]] double sample_loss_rate();

  [[nodiscard]] RootCause sample_root_cause();

 private:
  using LinkDirection = topology::LinkDirection;

  [[nodiscard]] Fault make_contamination(LinkId link, SimTime onset);
  [[nodiscard]] Fault make_damaged_fiber(LinkId link, SimTime onset);
  [[nodiscard]] Fault make_decaying_transmitter(LinkId link, SimTime onset);
  [[nodiscard]] Fault make_bad_transceiver(LinkId link, SimTime onset);
  [[nodiscard]] Fault make_shared_component(LinkId link, SimTime onset);

  // Picks a uniformly random direction of `link`.
  [[nodiscard]] DirectionId random_direction(LinkId link);

  const topology::Topology* topo_;
  FaultMixParams params_;
  common::Rng* rng_;
};

}  // namespace corropt::faults
