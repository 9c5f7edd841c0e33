// Brute-force oracles for the path counter's sweeps and closures.
//
// Each walks the topology's own Switch and Link structs, never the
// FabricIndex, so a fault in the index or in the closure walks cannot
// hide in the oracle too. Exponential or quadratic; small topologies
// only.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/ids.h"
#include "topology/topology.h"

namespace corropt::testing {

// Valley-free upward paths from `from` to the top level through links
// that are enabled and not in `extra_off` (may be null), by exhaustive
// DFS.
inline std::uint64_t count_paths_brute_force(
    const topology::Topology& topo, common::SwitchId from,
    const common::DynamicBitset* extra_off = nullptr) {
  const topology::Switch& sw = topo.switch_at(from);
  if (sw.level == topo.top_level()) return 1;
  std::uint64_t total = 0;
  for (common::LinkId uplink : sw.uplinks) {
    if (!topo.is_enabled(uplink)) continue;
    if (extra_off != nullptr && extra_off->test(uplink.index())) continue;
    total += count_paths_brute_force(topo, topo.link_at(uplink).upper,
                                     extra_off);
  }
  return total;
}

// reached[s] != 0 iff switch s is `from` or lies above it over installed
// links, disabled ones included (up) or below it over enabled links
// (down).
inline std::vector<char> reachable_brute_force(const topology::Topology& topo,
                                               common::SwitchId from,
                                               bool up) {
  std::vector<char> reached(topo.switch_count(), 0);
  std::vector<common::SwitchId> stack = {from};
  reached[from.index()] = 1;
  while (!stack.empty()) {
    const topology::Switch& sw = topo.switch_at(stack.back());
    stack.pop_back();
    for (common::LinkId link : up ? sw.uplinks : sw.downlinks) {
      if (!up && !topo.is_enabled(link)) continue;
      const common::SwitchId next =
          up ? topo.link_at(link).upper : topo.link_at(link).lower;
      if (reached[next.index()] == 0) {
        reached[next.index()] = 1;
        stack.push_back(next);
      }
    }
  }
  return reached;
}

}  // namespace corropt::testing
