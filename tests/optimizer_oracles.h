// Reference readings of the optimizer's reductions that the library
// itself no longer runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/bitset.h"
#include "common/ids.h"
#include "corropt/path_counter.h"

namespace corropt::testing {

// One segment as the oracles return it: owned copies of what
// core::SegmentView shows.
struct OracleSegment {
  std::vector<common::LinkId> links;
  std::vector<common::SwitchId> tors;
};

// Segmentation as it ran before the word-AND pass: one closure bit
// test per (endangered ToR, candidate) pair, a member list per ToR, and
// a union-find over the candidates' id-sorted indices that chains each
// list's members to its first. Same contract as core::Segmenter::split:
// segments in the order of their first endangered ToR, links id-sorted,
// ToRs in input order.
inline std::vector<OracleSegment> segment_candidates_per_bit(
    core::PathCounter& paths, std::span<const common::LinkId> candidates,
    std::span<const common::SwitchId> endangered_tors) {
  if (candidates.empty()) return {};
  std::vector<common::LinkId> links(candidates.begin(), candidates.end());
  std::sort(links.begin(), links.end());
  const std::vector<std::uint32_t>& sweep_pos = paths.index()->sweep_pos;
  std::vector<std::uint32_t> lower(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    lower[i] = sweep_pos[paths.topo().link_at(links[i]).lower.index()];
  }

  std::vector<std::size_t> parent(links.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<std::vector<std::size_t>> tor_members(endangered_tors.size());
  for (std::size_t t = 0; t < endangered_tors.size(); ++t) {
    const common::DynamicBitset& upstream =
        paths.tor_closure(endangered_tors[t]);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (upstream.test(lower[i])) tor_members[t].push_back(i);
    }
    for (std::size_t i = 1; i < tor_members[t].size(); ++i) {
      parent[find(tor_members[t][0])] = find(tor_members[t][i]);
    }
  }

  std::vector<OracleSegment> segments;
  std::vector<std::size_t> root_to_segment(links.size(), SIZE_MAX);
  for (std::size_t t = 0; t < endangered_tors.size(); ++t) {
    if (tor_members[t].empty()) continue;
    const std::size_t root = find(tor_members[t][0]);
    if (root_to_segment[root] == SIZE_MAX) {
      root_to_segment[root] = segments.size();
      segments.emplace_back();
    }
    segments[root_to_segment[root]].tors.push_back(endangered_tors[t]);
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    const std::size_t root = find(i);
    if (root_to_segment[root] == SIZE_MAX) continue;
    segments[root_to_segment[root]].links.push_back(links[i]);
  }
  return segments;
}

// The optimizer's pruning pass as it ran before it recounted in place:
// copy `baseline` into `counts`, recount the masked links' downward
// closure there (seeded with the lower endpoints of the masked links
// that conduct, following enabled downlinks only), and report the ToRs
// it pushes below `required`, merged with `baseline_violated`. Leaves
// up_paths(&masked) in `counts`.
inline std::vector<common::SwitchId> masked_violated_tors_copying(
    const core::PathCounter& paths, std::span<const std::uint64_t> baseline,
    std::span<const common::SwitchId> baseline_violated,
    const core::LinkMask& masked, std::span<const common::LinkId> masked_links,
    std::span<const std::uint64_t> required,
    std::vector<std::uint64_t>& counts) {
  const core::FabricIndex& ix = *paths.index();
  const topology::Topology& topo = paths.topo();
  const std::uint64_t* enabled = topo.enabled_mask().words().data();
  counts.assign(baseline.begin(), baseline.end());
  common::DynamicBitset closure(ix.order.size());
  for (common::LinkId link : masked_links) {
    if (topo.is_enabled(link)) {
      closure.set(ix.sweep_pos[topo.link_at(link).lower.index()]);
    }
  }
  std::vector<common::SwitchId> violated;
  core::FabricIndex::SliceMemo memo;
  for (std::size_t pos = ix.top_count; pos < ix.order.size(); ++pos) {
    if (!closure.test(pos)) continue;
    const core::FabricIndex::SweepNode& node = ix.nodes[pos - ix.top_count];
    const std::uint64_t total = ix.node_sum(node, enabled,
                                            masked.words().data(),
                                            counts.data(), memo);
    counts[node.sw] = total;
    if ((node.flags & core::FabricIndex::kNodeTor) != 0 &&
        total < required[node.sw] && baseline[node.sw] >= required[node.sw]) {
      violated.push_back(common::SwitchId(node.sw));
    }
    for (std::uint32_t d = ix.down_offset[node.sw];
         d < ix.down_offset[node.sw + 1]; ++d) {
      if (topo.is_enabled(common::LinkId(ix.down_link[d]))) {
        closure.set(ix.sweep_pos[ix.down_lower[d]]);
      }
    }
  }
  violated.insert(violated.end(), baseline_violated.begin(),
                  baseline_violated.end());
  std::sort(violated.begin(), violated.end());
  return violated;
}

}  // namespace corropt::testing
