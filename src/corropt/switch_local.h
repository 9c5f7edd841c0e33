// The state-of-the-art baseline: switch-local checking (Section 5.1).
//
// Production DCNs today disable a corrupting link only when the switch it
// attaches to keeps a threshold fraction sc of its uplinks active: with m
// uplinks, at most floor(m * (1 - sc)) may be disabled. To actually
// guarantee a ToR capacity constraint of c in a topology with r tiers
// above the ToRs, sc must be c^(1/r) (sqrt(c) for three-stage networks),
// which makes the check very conservative — the core sub-optimality that
// CorrOpt's global view removes (Figure 10).
#pragma once

#include <cmath>

#include "common/ids.h"
#include "topology/topology.h"

namespace corropt::core {

// The switch-local threshold that guarantees a ToR capacity constraint of
// `capacity_fraction` in a topology with `tiers_above_tor` levels above
// the ToR stage.
[[nodiscard]] inline double switch_local_threshold(double capacity_fraction,
                                                   int tiers_above_tor) {
  return std::pow(capacity_fraction, 1.0 / tiers_above_tor);
}

class SwitchLocalChecker {
 public:
  // `sc` is the fraction of uplinks every switch must keep active.
  SwitchLocalChecker(topology::Topology& topo, double sc);

  // Disables `link` iff its switch (the lower endpoint, whose uplink it
  // is) would still keep ceil(m * sc) uplinks active. Idempotent on
  // already-disabled links.
  bool try_disable(common::LinkId link);

  [[nodiscard]] bool can_disable(common::LinkId link) const;

  // Maximum number of uplinks the lower switch of `link` may disable.
  [[nodiscard]] int disable_budget(common::SwitchId sw) const;

  [[nodiscard]] double sc() const { return sc_; }

 private:
  topology::Topology* topo_;
  double sc_;
};

}  // namespace corropt::core
