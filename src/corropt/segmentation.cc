#include "corropt/segmentation.h"

#include <algorithm>
#include <numeric>

namespace corropt::core {

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<Segment> segment_candidates(
    PathCounter& paths, std::span<const LinkId> candidates,
    std::span<const SwitchId> endangered_tors) {
  if (candidates.empty()) return {};

  // Candidates in id order; union-find runs over their dense indices.
  std::vector<LinkId> links(candidates.begin(), candidates.end());
  std::sort(links.begin(), links.end());
  const std::vector<std::uint32_t>& sweep_pos = paths.index()->sweep_pos;
  std::vector<std::uint32_t> lower(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    lower[i] = sweep_pos[paths.topo().link_at(links[i]).lower.index()];
  }

  UnionFind uf(links.size());
  // tor_members[t] = candidate indices upstream of endangered ToR t.
  std::vector<std::vector<std::size_t>> tor_members(endangered_tors.size());
  for (std::size_t t = 0; t < endangered_tors.size(); ++t) {
    const common::DynamicBitset& upstream =
        paths.tor_closure(endangered_tors[t]);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (upstream.test(lower[i])) tor_members[t].push_back(i);
    }
    for (std::size_t i = 1; i < tor_members[t].size(); ++i) {
      uf.unite(tor_members[t][0], tor_members[t][i]);
    }
  }

  // Gather segments keyed by union-find root; attach each ToR to the
  // segment of its members.
  // Links upstream of no endangered ToR stay unmerged singletons; they
  // are excluded by only materializing segments reached from a ToR
  // membership list.
  std::vector<Segment> segments;
  std::vector<std::size_t> root_to_segment(links.size(), SIZE_MAX);
  for (std::size_t t = 0; t < endangered_tors.size(); ++t) {
    if (tor_members[t].empty()) continue;
    const std::size_t root = uf.find(tor_members[t][0]);
    if (root_to_segment[root] == SIZE_MAX) {
      root_to_segment[root] = segments.size();
      segments.emplace_back();
    }
    segments[root_to_segment[root]].tors.push_back(endangered_tors[t]);
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    const std::size_t root = uf.find(i);
    if (root_to_segment[root] == SIZE_MAX) continue;  // Safe link.
    segments[root_to_segment[root]].links.push_back(links[i]);
  }
  return segments;
}

}  // namespace corropt::core
