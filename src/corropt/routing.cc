#include "corropt/routing.h"

#include <algorithm>
#include <cassert>

namespace corropt::core {

namespace {

// Propagates one unit of upward traffic from every ToR through the given
// per-switch uplink shares; returns per-link traffic.
std::vector<double> propagate(const topology::Topology& topo,
                              const WcmpTable& table) {
  std::vector<double> switch_traffic(topo.switch_count(), 0.0);
  std::vector<double> link_traffic(topo.link_count(), 0.0);
  for (common::SwitchId tor : topo.tors()) {
    switch_traffic[tor.index()] = 1.0;
  }
  for (int level = 0; level < topo.top_level(); ++level) {
    for (common::SwitchId id : topo.switches_at_level(level)) {
      const double traffic = switch_traffic[id.index()];
      if (traffic == 0.0) continue;
      for (const UplinkWeight& uplink : table.weights[id.index()]) {
        const double share = traffic * uplink.weight;
        link_traffic[uplink.link.index()] += share;
        switch_traffic[topo.link_at(uplink.link).upper.index()] += share;
      }
    }
  }
  return link_traffic;
}

// Uniform shares over every *installed* link: the intact-ECMP baseline.
WcmpTable intact_uniform_table(const topology::Topology& topo) {
  WcmpTable table;
  table.weights.resize(topo.switch_count());
  for (const topology::Switch& sw : topo.switches()) {
    if (sw.uplinks.empty()) continue;
    const double share = 1.0 / static_cast<double>(sw.uplinks.size());
    for (common::LinkId link : sw.uplinks) {
      table.weights[sw.id.index()].push_back({link, share});
    }
  }
  return table;
}

}  // namespace

WcmpTable compute_wcmp(const topology::Topology& topo,
                       const PathCounter& paths) {
  const std::vector<std::uint64_t> counts = paths.up_paths();
  WcmpTable table;
  table.weights.resize(topo.switch_count());
  for (const topology::Switch& sw : topo.switches()) {
    if (sw.level == topo.top_level()) continue;
    const double total = static_cast<double>(counts[sw.id.index()]);
    if (total == 0.0) continue;  // No upward path: nothing to weight.
    auto& row = table.weights[sw.id.index()];
    for (common::LinkId link : sw.uplinks) {
      if (!topo.is_enabled(link)) continue;
      const double through =
          static_cast<double>(counts[topo.link_at(link).upper.index()]);
      if (through == 0.0) continue;  // Dead-end uplink carries nothing.
      row.push_back({link, through / total});
    }
  }
  return table;
}

std::vector<double> compute_link_traffic(const topology::Topology& topo,
                                         const WcmpTable& table) {
  return propagate(topo, table);
}

double max_link_overload(const topology::Topology& topo,
                         const WcmpTable& table) {
  const std::vector<double> degraded = propagate(topo, table);
  const std::vector<double> baseline =
      propagate(topo, intact_uniform_table(topo));
  double worst = 0.0;
  for (std::size_t i = 0; i < degraded.size(); ++i) {
    if (baseline[i] <= 0.0) continue;
    worst = std::max(worst, degraded[i] / baseline[i]);
  }
  return worst;
}

}  // namespace corropt::core
