// WCMP routing weights over degraded topologies (Section 8, "Load
// balancing").
//
// CorrOpt disables corrupting links, making the topology asymmetric;
// plain ECMP would then overload the uplinks that lead into thin
// subtrees. The standard remedy (the "standard input" the paper refers
// to) is weighted-cost multipath: each switch splits upward traffic over
// its active uplinks in proportion to the number of spine paths
// reachable through each. This module computes those weights from the
// same O(|E|) path counts the fast checker uses, so the routing layer
// can be refreshed after every disable/enable with no extra sweeps.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "corropt/path_counter.h"
#include "topology/topology.h"

namespace corropt::core {

struct UplinkWeight {
  common::LinkId link;
  // Fraction of the switch's upward traffic to place on this link, in
  // [0, 1]; active uplinks of a switch sum to 1 (when any path exists).
  double weight = 0.0;
};

struct WcmpTable {
  // weights[switch.index()] = the switch's active uplinks with their
  // traffic shares. Spine switches and switches with no active upward
  // path have empty entries.
  std::vector<std::vector<UplinkWeight>> weights;
};

// Computes WCMP weights proportional to spine-path counts through each
// active uplink. With an intact topology this degenerates to uniform
// ECMP.
[[nodiscard]] WcmpTable compute_wcmp(const topology::Topology& topo,
                                     const PathCounter& paths);

// Per-link upward traffic when every ToR sends one unit through
// `table`.
[[nodiscard]] std::vector<double> compute_link_traffic(
    const topology::Topology& topo, const WcmpTable& table);

// Expected relative load each spine-path "slot" sees when every ToR
// sends one unit of traffic upward through `table`: the imbalance
// metric. Returns the max over links of (traffic on link) divided by
// (traffic it would carry under perfectly balanced routing on the
// intact topology). 1.0 = perfectly balanced.
[[nodiscard]] double max_link_overload(const topology::Topology& topo,
                                       const WcmpTable& table);

}  // namespace corropt::core
