#include "corropt/segmentation.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
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
  if (candidates.empty() || endangered_tors.empty()) return {};

  // Candidates in id order; union-find runs over their dense indices.
  std::vector<LinkId> links(candidates.begin(), candidates.end());
  std::sort(links.begin(), links.end());
  const FabricIndex& ix = *paths.index();

  // The candidates' lower endpoints as bits over sweep positions, and
  // per position a chain of the candidates sharing it: head[pos] is the
  // lowest index, next[i] the one after i. head is read only where
  // `lowers` holds a bit. [lo, hi] is the range of words with a bit.
  constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint64_t> lowers((ix.order.size() + 63) / 64, 0);
  std::vector<std::uint32_t> head(ix.order.size());
  std::vector<std::uint32_t> next(links.size());
  std::size_t lo = lowers.size();
  std::size_t hi = 0;
  for (std::size_t i = links.size(); i-- > 0;) {
    const std::uint32_t pos =
        ix.sweep_pos[paths.topo().link_at(links[i]).lower.index()];
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    next[i] = (lowers[pos / 64] & bit) != 0 ? head[pos] : kEnd;
    head[pos] = static_cast<std::uint32_t>(i);
    lowers[pos / 64] |= bit;
    lo = std::min<std::size_t>(lo, pos / 64);
    hi = std::max<std::size_t>(hi, pos / 64);
  }

  // A candidate is upstream of a ToR iff the ToR's closure holds its
  // lower endpoint: AND the closure with `lowers` over [lo, hi] and
  // unite every hit with the ToR's first one.
  UnionFind uf(links.size());
  std::vector<std::uint32_t> first(endangered_tors.size(), kEnd);
  for (std::size_t t = 0; t < endangered_tors.size(); ++t) {
    const std::span<const common::DynamicBitset::Word> upstream =
        paths.tor_closure(endangered_tors[t]).words();
    for (std::size_t w = lo; w <= hi; ++w) {
      for (std::uint64_t hits = upstream[w] & lowers[w]; hits != 0;
           hits &= hits - 1) {
        const std::size_t pos =
            w * 64 + static_cast<std::size_t>(std::countr_zero(hits));
        for (std::uint32_t i = head[pos]; i != kEnd; i = next[i]) {
          if (first[t] == kEnd) {
            first[t] = i;
          } else {
            uf.unite(first[t], i);
          }
        }
      }
    }
  }

  // Gather segments keyed by union-find root; attach each ToR to the
  // segment of its members.
  // Links upstream of no endangered ToR stay unmerged singletons; they
  // are excluded by only materializing segments reached from a ToR.
  std::vector<Segment> segments;
  std::vector<std::size_t> root_to_segment(links.size(), SIZE_MAX);
  for (std::size_t t = 0; t < endangered_tors.size(); ++t) {
    if (first[t] == kEnd) continue;
    const std::size_t root = uf.find(first[t]);
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
