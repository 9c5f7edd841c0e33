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
#include "corropt/segmentation.h"

namespace corropt::testing {

// segment_candidates as it ran before the word-AND pass: one closure bit
// test per (endangered ToR, candidate) pair, a member list per ToR, and
// a union-find over the candidates' id-sorted indices that chains each
// list's members to its first. Same contract: segments in the order of
// their first endangered ToR, links id-sorted, ToRs in input order.
inline std::vector<core::Segment> segment_candidates_per_bit(
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

  std::vector<core::Segment> segments;
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

}  // namespace corropt::testing
