#include "topology/xgft.h"

#include <cassert>
#include <string>
#include <utility>

namespace corropt::topology {

namespace {

// Number of "group" positions at a level: product of child arities above.
std::size_t group_count(const XgftSpec& spec, int level) {
  std::size_t g = 1;
  for (int j = level; j < spec.height(); ++j) {
    g *= static_cast<std::size_t>(spec.children_per_node[
        static_cast<std::size_t>(j)]);
  }
  return g;
}

// Number of "replica" positions at a level: product of parent arities
// below.
std::size_t replica_count(const XgftSpec& spec, int level) {
  std::size_t r = 1;
  for (int j = 0; j < level; ++j) {
    r *= static_cast<std::size_t>(spec.parents_per_node[
        static_cast<std::size_t>(j)]);
  }
  return r;
}

}  // namespace

std::size_t XgftSpec::nodes_at_level(int level) const {
  assert(level >= 0 && level <= height());
  return group_count(*this, level) * replica_count(*this, level);
}

std::size_t XgftSpec::total_links() const {
  std::size_t links = 0;
  for (int level = 0; level < height(); ++level) {
    links += nodes_at_level(level) *
             static_cast<std::size_t>(
                 parents_per_node[static_cast<std::size_t>(level)]);
  }
  return links;
}

Topology build_xgft(const XgftSpec& spec) {
  assert(spec.height() >= 1);
  assert(spec.children_per_node.size() == spec.parents_per_node.size());
  for (int i = 0; i < spec.height(); ++i) {
    assert(spec.children_per_node[static_cast<std::size_t>(i)] > 0);
    assert(spec.parents_per_node[static_cast<std::size_t>(i)] > 0);
  }

  Topology topo;
  // Pods are the level-1 groups: G_1 = product of child arities above
  // level 1. A level-l switch's pod is its group index scaled down to
  // that granularity; switches whose subtree spans multiple pods
  // (spines, super-aggregation layers) get pod -1.
  std::size_t pods = 1;
  for (int j = 1; j < spec.height(); ++j) {
    pods *= static_cast<std::size_t>(
        spec.children_per_node[static_cast<std::size_t>(j)]);
  }

  // ids[level][group * replicas + replica] -> SwitchId
  std::vector<std::vector<SwitchId>> ids(
      static_cast<std::size_t>(spec.height()) + 1);
  for (int level = 0; level <= spec.height(); ++level) {
    const std::size_t count = spec.nodes_at_level(level);
    const std::size_t groups = group_count(spec, level);
    const std::size_t replicas = replica_count(spec, level);
    ids[static_cast<std::size_t>(level)].reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t group = i / replicas;
      const int pod = groups >= pods
                          ? static_cast<int>(group / (groups / pods))
                          : -1;
      // Appended, not `"L" + ...`: GCC 12 warns -Wrestrict on that at -O3.
      std::string name = "L";
      name += std::to_string(level);
      name += '-';
      name += std::to_string(i);
      topo.add_switch(level, std::move(name), pod);
      ids[static_cast<std::size_t>(level)].push_back(
          SwitchId(static_cast<SwitchId::underlying_type>(
              topo.switch_count() - 1)));
    }
  }

  // A level-`l` node (g, r) connects to parents (g / m, r + t * R_l) for
  // t in [0, w); R_l = replica_count(l). Children of a parent (g', r')
  // are (g' * m + s, r' mod R_l).
  for (int level = 0; level < spec.height(); ++level) {
    const auto m = static_cast<std::size_t>(
        spec.children_per_node[static_cast<std::size_t>(level)]);
    const auto w = static_cast<std::size_t>(
        spec.parents_per_node[static_cast<std::size_t>(level)]);
    const std::size_t groups = group_count(spec, level);
    const std::size_t replicas = replica_count(spec, level);
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t r = 0; r < replicas; ++r) {
        const SwitchId lower =
            ids[static_cast<std::size_t>(level)][g * replicas + r];
        for (std::size_t t = 0; t < w; ++t) {
          const std::size_t parent_group = g / m;
          const std::size_t parent_replica = r + t * replicas;
          const std::size_t parent_replicas = replicas * w;
          const SwitchId upper =
              ids[static_cast<std::size_t>(level) + 1]
                 [parent_group * parent_replicas + parent_replica];
          topo.add_link(lower, upper);
        }
      }
    }
  }

  topo.validate();
  return topo;
}

}  // namespace corropt::topology
