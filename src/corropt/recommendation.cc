#include "corropt/recommendation.h"

#include <cassert>
#include <vector>

#include "common/lossy.h"
#include "topology/topology.h"

namespace corropt::core {

using faults::RepairAction;
using topology::LinkDirection;

RecommendationEngine::RecommendationEngine(
    const telemetry::NetworkState& state)
    : state_(&state) {}

bool RecommendationEngine::neighbors_corrupting(LinkId link) const {
  const topology::Topology& topo = state_->topo();
  const topology::Link& l = topo.link_at(link);
  for (common::SwitchId end : {l.lower, l.upper}) {
    const topology::Switch& sw = topo.switch_at(end);
    for (const std::vector<LinkId>* list : {&sw.uplinks, &sw.downlinks}) {
      for (LinkId neighbor : *list) {
        if (neighbor == link) continue;
        if (state_->link_is_corrupting(neighbor)) return true;
      }
    }
  }
  return false;
}

Recommendation RecommendationEngine::recommend(DirectionId corrupting_dir,
                                               bool recently_reseated) const {
  const LinkId link = topology::link_of(corrupting_dir);
  const DirectionId opposite_dir = topology::opposite(corrupting_dir);

  // Line 2-4: corruption on co-located links implies a shared component
  // (breakout cable or switch backplane).
  if (neighbors_corrupting(link)) {
    return {RepairAction::kReplaceSharedComponent,
            "co-located links also corrupting: shared component suspected"};
  }

  // Line 5-6: bidirectional corruption implies cable damage; it is
  // otherwise rare (8.2% of corrupting links).
  if (state_->corruption_rate(opposite_dir) >= common::kLossyThreshold) {
    return {RepairAction::kReplaceFiber,
            "both directions corrupting: damaged cable suspected"};
  }

  // Lines 7-9. With the corrupting direction transmitted at the far end:
  // Rx1 is the receive power where corruption is observed, Rx2 the
  // receive power at the far end, and Tx2 the far end's transmit power
  // (which feeds Rx1).
  const double rx1 = state_->rx_power_dbm(corrupting_dir);
  const double rx2 = state_->rx_power_dbm(opposite_dir);
  const double tx2 = state_->tx_power_dbm(corrupting_dir);
  const telemetry::OpticalTech& tech = state_->tech();

  // Line 10-11: weak far-end laser.
  if (tech.tx_is_low(tx2)) {
    return {RepairAction::kReplaceRemoteTransceiver,
            "far-end TxPower low: decaying transmitter suspected"};
  }
  // Line 12-13: both receive powers low.
  if (tech.rx_is_low(rx1) && tech.rx_is_low(rx2)) {
    return {RepairAction::kReplaceFiber,
            "RxPower low on both ends: bent or damaged fiber suspected"};
  }
  // Line 14-15: one receive power low.
  if (tech.rx_is_low(rx1)) {
    return {RepairAction::kCleanFiber,
            "RxPower low on one end: connector contamination suspected"};
  }
  // Lines 16-20: healthy optics; non-optical issue.
  if (!recently_reseated) {
    return {RepairAction::kReseatTransceiver,
            "optics healthy: loose transceiver suspected"};
  }
  return {RepairAction::kReplaceTransceiver,
          "optics healthy and reseat already attempted: bad transceiver"};
}

Recommendation RecommendationEngine::recommend_link(
    LinkId link, bool recently_reseated) const {
  const DirectionId up = topology::direction_id(link, LinkDirection::kUp);
  const DirectionId down = topology::direction_id(link, LinkDirection::kDown);
  const DirectionId worse =
      state_->corruption_rate(up) >= state_->corruption_rate(down) ? up
                                                                   : down;
  return recommend(worse, recently_reseated);
}

}  // namespace corropt::core
