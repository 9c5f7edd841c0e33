// Per-ToR capacity constraints.
//
// The capacity metric is the fraction of valley-free paths from a ToR to
// the spine that remain available after links are disabled (Section 5.1).
// Because traffic demand differs across ToRs, thresholds are per-ToR with
// a uniform default. The denominator is the topology's design path count
// (all installed links), so repeated disabling cannot silently erode the
// baseline.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/ids.h"

namespace corropt::core {

using common::SwitchId;

class CapacityConstraint {
 public:
  // Uniform constraint c in [0, 1] for every ToR.
  explicit CapacityConstraint(double uniform_fraction = 0.75);

  // Overrides the threshold for one ToR (hot racks get more headroom).
  void set_tor_fraction(SwitchId tor, double fraction);

  // Bumped by every override, so caches of what the constraint requires
  // (the optimizer's solved segments) can tell they went stale.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // Hot path: with no override the array is empty and this is one
  // compare; with overrides, one index.
  [[nodiscard]] double fraction(SwitchId tor) const {
    return tor.index() < fractions_.size() ? fractions_[tor.index()]
                                           : default_fraction_;
  }

  // Minimum number of available paths the ToR must keep, given its design
  // path count: the smallest integer >= c * design (with a tolerance so
  // exact fractions like 0.6 * 25 = 15 do not round up to 16).
  [[nodiscard]] std::uint64_t min_paths(SwitchId tor,
                                        std::uint64_t design_paths) const {
    const double required =
        fraction(tor) * static_cast<double>(design_paths);
    return static_cast<std::uint64_t>(std::ceil(required - 1e-9));
  }

  // Equivalent to `available < min_paths(tor, design_paths)` without the
  // ceil call (for an integer a and real x, a < ceil(x) iff a < x); used
  // by the per-ToR hot loops in feasibility sweeps.
  [[nodiscard]] bool below_min(SwitchId tor, std::uint64_t design_paths,
                               std::uint64_t available) const {
    return static_cast<double>(available) <
           fraction(tor) * static_cast<double>(design_paths) - 1e-9;
  }

 private:
  double default_fraction_;
  std::uint64_t version_ = 0;
  // Fraction per switch index, up to the highest ToR ever overridden;
  // entries without an override hold default_fraction_.
  std::vector<double> fractions_;
};

}  // namespace corropt::core
