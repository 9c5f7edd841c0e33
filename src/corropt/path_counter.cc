#include "corropt/path_counter.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace corropt::core {
namespace {

// Extracts `count` (1..64) consecutive bits starting at `base` from a
// bitset's word array. Links added per switch get consecutive ids, so a
// switch's uplink enabled/masked states live in at most two words.
inline std::uint64_t extract_window(const std::uint64_t* words,
                                    std::uint32_t base, std::uint32_t count) {
  const std::uint32_t shift = base & 63u;
  std::uint64_t bits = words[base >> 6] >> shift;
  if (shift != 0 && shift + count > 64) {
    bits |= words[(base >> 6) + 1] << (64 - shift);
  }
  if (count < 64) bits &= (std::uint64_t{1} << count) - 1;
  return bits;
}

inline std::uint64_t all_ones(std::uint32_t count) {
  return count < 64 ? (std::uint64_t{1} << count) - 1 : ~std::uint64_t{0};
}

}  // namespace

FabricIndex::FabricIndex(const topology::Topology& topo) {
  const std::size_t switches = topo.switch_count();
  const std::size_t links = topo.link_count();

  // Flatten per-switch uplink lists into CSR arrays indexed by switch.
  up_offset.assign(switches + 1, 0);
  up_link.reserve(links);
  up_upper.reserve(links);
  for (std::size_t s = 0; s < switches; ++s) {
    up_offset[s] = static_cast<std::uint32_t>(up_link.size());
    for (LinkId uplink : topo.switches()[s].uplinks) {
      up_link.push_back(static_cast<std::uint32_t>(uplink.index()));
      up_upper.push_back(
          static_cast<std::uint32_t>(topo.link_at(uplink).upper.index()));
    }
  }
  up_offset[switches] = static_cast<std::uint32_t>(up_link.size());


  // Inverted CSR: counting sort of links by upper endpoint.
  down_offset.assign(switches + 1, 0);
  for (const topology::Link& link : topo.links()) {
    ++down_offset[link.upper.index() + 1];
  }
  for (std::size_t s = 0; s < switches; ++s) {
    down_offset[s + 1] += down_offset[s];
  }
  down_link.resize(links);
  down_lower.resize(links);
  {
    std::vector<std::uint32_t> cursor(down_offset.begin(),
                                      down_offset.end() - 1);
    for (const topology::Link& link : topo.links()) {
      const std::uint32_t d = cursor[link.upper.index()]++;
      down_link[d] = static_cast<std::uint32_t>(link.id.index());
      down_lower[d] = static_cast<std::uint32_t>(link.lower.index());
    }
  }

  // Level-descending switch order; the leading top_count entries are the
  // top-level switches whose path count is the constant 1.
  order.reserve(switches);
  const int top = topo.top_level();
  for (int level = top; level >= 0; --level) {
    for (SwitchId id : topo.switches_at_level(level)) {
      order.push_back(static_cast<std::uint32_t>(id.index()));
    }
    if (level == top) top_count = order.size();
  }
  sweep_pos.resize(switches);
  for (std::size_t i = 0; i < order.size(); ++i) {
    sweep_pos[order[i]] = static_cast<std::uint32_t>(i);
  }

  // Packed per-switch sweep metadata, in sweep (level-descending) order.
  // link_base/ubase record fat-tree regularities the hot loop exploits:
  // contiguous uplink link ids (a switch's uplinks are added back to
  // back) let one or two bitset word reads yield the active-bit window;
  // consecutive upper ids (a ToR's aggs, an agg's spines) let the
  // all-active case sum a sequential counts slice; uppers all at the top
  // level (count == 1 always) reduce the sum to a popcount.
  nodes.reserve(order.size() - top_count);
  for (std::size_t i = top_count; i < order.size(); ++i) {
    const std::uint32_t s = order[i];
    SweepNode node;
    node.sw = s;
    node.begin = up_offset[s];
    node.count = up_offset[s + 1] - node.begin;
    node.link_base = kScatteredUplinks;
    node.ubase = kScatteredUplinks;
    node.flags = topo.switches()[s].level == 0 ? kNodeTor : 0;
    bool at_top = node.count > 0;
    bool contiguous = node.count > 0 && node.count <= 64;
    bool consecutive_uppers = contiguous;
    for (std::uint32_t u = node.begin; u < node.begin + node.count; ++u) {
      const std::uint32_t k = u - node.begin;
      if (up_link[u] != up_link[node.begin] + k) contiguous = false;
      if (up_upper[u] != up_upper[node.begin] + k) {
        consecutive_uppers = false;
      }
      if (topo.switches()[up_upper[u]].level != top) at_top = false;
    }
    if (contiguous) {
      node.link_base = up_link[node.begin];
      if (consecutive_uppers) node.ubase = up_upper[node.begin];
      if (at_top) node.flags |= kNodeUppersAtTop;
    }
    nodes.push_back(node);
  }

  // Design capacity: sweep with every installed link conducting.
  const std::vector<std::uint64_t> all_on((links + 63) / 64, ~0ull);
  design_paths.assign(switches, 0);
  for (std::size_t i = 0; i < top_count; ++i) design_paths[order[i]] = 1;
  SliceMemo memo;
  for (const SweepNode& node : nodes) {
    design_paths[node.sw] =
        node_sum(node, all_on.data(), nullptr, design_paths.data(), memo);
  }
}

PathCounter::PathCounter(const topology::Topology& topo)
    : PathCounter(topo, std::make_shared<const FabricIndex>(topo)) {}

PathCounter::PathCounter(const topology::Topology& topo,
                         std::shared_ptr<const FabricIndex> index)
    : topo_(&topo),
      index_(std::move(index)),
      closure_((topo.switch_count() + 63) / 64, 0) {
  assert(index_->design_paths.size() == topo.switch_count());
}

void PathCounter::up_paths_into(std::vector<std::uint64_t>& out,
                                const LinkMask* extra_off) const {
  const FabricIndex& ix = *index_;
  out.assign(topo_->switch_count(), 0);
  for (std::size_t i = 0; i < ix.top_count; ++i) out[ix.order[i]] = 1;
  const std::uint64_t* ew = topo_->enabled_mask().words().data();
  const std::uint64_t* xw = nullptr;
  if (extra_off != nullptr) {
    assert(extra_off->size() == topo_->link_count());
    xw = extra_off->words().data();
  }
  FabricIndex::SliceMemo memo;
  for (const FabricIndex::SweepNode& node : ix.nodes) {
    out[node.sw] = ix.node_sum(node, ew, xw, out.data(), memo);
  }
}

std::uint64_t FabricIndex::node_sum(const SweepNode& node,
                                    const std::uint64_t* enabled_words,
                                    const std::uint64_t* masked_words,
                                    const std::uint64_t* counts,
                                    SliceMemo& memo) const {
  const std::uint32_t count = node.count;
  std::uint64_t total = 0;
  if (node.link_base != kScatteredUplinks) {
    // Fast path: one (or two) word reads give the active-bit window.
    std::uint64_t bits = extract_window(enabled_words, node.link_base, count);
    if (masked_words != nullptr) {
      bits &= ~extract_window(masked_words, node.link_base, count);
    }
    if ((node.flags & kNodeUppersAtTop) != 0) {
      // Every active uplink contributes exactly 1.
      return static_cast<std::uint64_t>(std::popcount(bits));
    }
    const std::uint32_t* upper = up_upper.data() + node.begin;
    if (bits == all_ones(count)) {
      if (node.ubase != kScatteredUplinks) {
        // Consecutive uppers: a sequential slice sum. Pod siblings share
        // the slice, so the previous switch's sum usually still applies.
        if (memo.valid && memo.ubase == node.ubase && memo.count == count) {
          return memo.sum;
        }
        // Four independent accumulators break the serial add chain (the
        // -O2 build does not autovectorize runtime-count sums).
        std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
        std::uint32_t k = 0;
        const std::uint64_t* c = counts + node.ubase;
        for (; k + 4 <= count; k += 4) {
          t0 += c[k];
          t1 += c[k + 1];
          t2 += c[k + 2];
          t3 += c[k + 3];
        }
        for (; k < count; ++k) t0 += c[k];
        total = (t0 + t1) + (t2 + t3);
        memo = SliceMemo{node.ubase, count, total, true};
      } else {
        std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
        std::uint32_t k = 0;
        for (; k + 4 <= count; k += 4) {
          t0 += counts[upper[k]];
          t1 += counts[upper[k + 1]];
          t2 += counts[upper[k + 2]];
          t3 += counts[upper[k + 3]];
        }
        for (; k < count; ++k) t0 += counts[upper[k]];
        total = (t0 + t1) + (t2 + t3);
      }
    } else {
      while (bits != 0) {
        total += counts[upper[std::countr_zero(bits)]];
        bits &= bits - 1;
      }
    }
  } else {
    for (std::uint32_t u = node.begin; u < node.begin + count; ++u) {
      const std::uint32_t link = up_link[u];
      const bool active =
          ((enabled_words[link >> 6] >> (link & 63u)) & 1u) != 0 &&
          (masked_words == nullptr ||
           ((masked_words[link >> 6] >> (link & 63u)) & 1u) == 0);
      if (active) total += counts[up_upper[u]];
    }
  }
  return total;
}

void PathCounter::mark(std::uint32_t sw) {
  const std::uint32_t pos = index_->sweep_pos[sw];
  assert(pos >= index_->top_count);
  const std::size_t w = pos / 64;
  closure_[w] |= std::uint64_t{1} << (pos % 64);
  closure_lo_ = std::min(closure_lo_, w);
  closure_hi_ = std::max(closure_hi_, w);
}

template <typename Visit>
std::size_t PathCounter::recount_closure(std::uint64_t* counts,
                                         const std::uint64_t* masked_words,
                                         Visit&& visit) {
  const FabricIndex& ix = *index_;
  const std::uint64_t* ew = topo_->enabled_mask().words().data();
  FabricIndex::SliceMemo memo;
  std::size_t visited = 0;
  // Marks made while visiting a word land on later bits (or words), so
  // clearing the lowest bit after each visit drains everything.
  for (std::size_t w = closure_lo_; w <= closure_hi_; ++w) {
    for (std::uint64_t& word = closure_[w]; word != 0; word &= word - 1) {
      const std::size_t pos =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      const FabricIndex::SweepNode& node = ix.nodes[pos - ix.top_count];
      counts[node.sw] =
          visit(node, ix.node_sum(node, ew, masked_words, counts, memo));
      ++visited;
      // Only enabled downlinks carry this count below; a lower endpoint
      // reached through a disabled one does not read it.
      for (std::uint32_t d = ix.down_offset[node.sw];
           d < ix.down_offset[node.sw + 1]; ++d) {
        const std::uint32_t link = ix.down_link[d];
        if (((ew[link >> 6] >> (link & 63u)) & 1u) != 0) {
          mark(ix.down_lower[d]);
        }
      }
    }
  }
  closure_lo_ = SIZE_MAX;
  closure_hi_ = 0;
  return visited;
}

const std::vector<std::uint64_t>& PathCounter::live_counts() {
  std::vector<std::uint64_t>& counts = live_.counts;
  if (!for_each_flip(live_.seen, topo_->enabled_mask().words(),
                     [&](LinkId link) {
                       mark(static_cast<std::uint32_t>(
                           topo_->link_at(link).lower.index()));
                     })) {
    up_paths_into(counts);
    return counts;
  }
  // Counts outside the flipped links' downward closure did not change.
  recount_closure(counts.data(), nullptr,
                  [](const FabricIndex::SweepNode&, std::uint64_t total) {
                    return total;
                  });
  return counts;
}

PathCounter::DisableCheck PathCounter::check_disable(
    LinkId link, const CapacityConstraint& constraint, bool keep) {
  assert(topo_->is_enabled(link));
  live_counts();
  std::uint64_t* counts = live_.counts.data();
  const topology::Link& info = topo_->link_at(link);
  const auto root = static_cast<std::uint32_t>(info.lower.index());
  // The root's sum still counts the paths through `link` itself.
  const std::uint64_t through_link = counts[info.upper.index()];
  const std::vector<std::uint64_t>& design = index_->design_paths;
  DisableCheck check;
  undo_.clear();
  mark(root);
  check.closure_switches = recount_closure(
      counts, nullptr,
      [&](const FabricIndex::SweepNode& node, std::uint64_t total) {
        if (node.sw == root) total -= through_link;
        undo_.emplace_back(node.sw, counts[node.sw]);
        if ((node.flags & FabricIndex::kNodeTor) != 0 &&
            constraint.below_min(SwitchId(node.sw), design[node.sw],
                                 total)) {
          check.feasible = false;
        }
        return total;
      });
  if (keep && check.feasible) {
    // The caller disables `link` next; the counts already reflect it.
    live_.seen[link.index() / 64] &=
        ~(std::uint64_t{1} << (link.index() % 64));
  } else {
    for (const auto& [sw, old] : undo_) counts[sw] = old;
  }
  return check;
}

void PathCounter::masked_violated_tors(
    std::vector<SwitchId>& violated, std::span<const SwitchId> live_violated,
    const LinkMask& masked, std::span<const LinkId> masked_links,
    std::span<const std::uint64_t> required) {
  assert(required.size() == topo_->switch_count());
  assert(masked.size() == topo_->link_count());
  assert(std::equal(live_.seen.begin(), live_.seen.end(),
                    topo_->enabled_mask().words().begin()));
  violated.clear();
  std::uint64_t* counts = live_.counts.data();
  // Seed with the lower endpoints of masked links that are actually
  // conducting (masking an already-disabled link changes nothing).
  for (LinkId link : masked_links) {
    if (topo_->is_enabled(link)) {
      mark(static_cast<std::uint32_t>(topo_->link_at(link).lower.index()));
    }
  }
  undo_.clear();
  recount_closure(
      counts, masked.words().data(),
      [&](const FabricIndex::SweepNode& node, std::uint64_t total) {
        const std::uint64_t old = counts[node.sw];
        undo_.emplace_back(node.sw, old);
        if ((node.flags & FabricIndex::kNodeTor) != 0 &&
            total < required[node.sw] && old >= required[node.sw]) {
          violated.push_back(SwitchId(node.sw));
        }
        return total;
      });
  for (const auto& [sw, old] : undo_) counts[sw] = old;
  // Masking only removes paths, so every live violation stands. The
  // walk visits ToRs in id order and both lists are id-sorted and
  // disjoint; merge.
  const std::size_t fresh = violated.size();
  violated.insert(violated.end(), live_violated.begin(), live_violated.end());
  std::inplace_merge(violated.begin(),
                     violated.begin() + static_cast<std::ptrdiff_t>(fresh),
                     violated.end());
}

const common::DynamicBitset& PathCounter::tor_closure(SwitchId tor) {
  if (tor_closures_.empty()) tor_closures_.resize(topo_->switch_count());
  common::DynamicBitset& mask = tor_closures_[tor.index()];
  if (!mask.empty()) return mask;
  const FabricIndex& ix = *index_;
  mask.assign(ix.order.size());
  const std::uint32_t start = ix.sweep_pos[tor.index()];
  mask.set(start);
  // The mirror image of recount_closure: uppers sit earlier in sweep
  // order, so one pass over descending positions reaches them all.
  for (std::size_t w = start / 64 + 1; w-- > 0;) {
    std::uint64_t todo = mask.words()[w];
    while (todo != 0) {
      const int bit = 63 - std::countl_zero(todo);
      todo &= ~(std::uint64_t{1} << bit);
      const FabricIndex::UplinkSpan span =
          ix.uplinks_of(ix.order[w * 64 + static_cast<std::size_t>(bit)]);
      for (std::size_t u = 0; u < span.count; ++u) {
        const std::uint32_t pos = ix.sweep_pos[span.upper[u]];
        if (mask.test(pos)) continue;
        mask.set(pos);
        if (pos / 64 == w) todo |= std::uint64_t{1} << (pos % 64);
      }
    }
  }
  return mask;
}

std::vector<std::uint64_t> PathCounter::up_paths(
    const LinkMask* extra_off) const {
  std::vector<std::uint64_t> paths;
  up_paths_into(paths, extra_off);
  return paths;
}

std::vector<std::uint64_t> PathCounter::required_paths(
    const CapacityConstraint& constraint) const {
  std::vector<std::uint64_t> required(topo_->switch_count(), 0);
  for (SwitchId tor : topo_->tors()) {
    required[tor.index()] =
        constraint.min_paths(tor, design_paths()[tor.index()]);
  }
  return required;
}

std::vector<SwitchId> PathCounter::violated_tors(
    std::span<const std::uint64_t> up_paths,
    const CapacityConstraint& constraint) const {
  std::vector<SwitchId> violated;
  for (SwitchId tor : topo_->tors()) {
    if (constraint.below_min(tor, design_paths()[tor.index()],
                             up_paths[tor.index()])) {
      violated.push_back(tor);
    }
  }
  return violated;
}

bool PathCounter::feasible(std::span<const std::uint64_t> up_paths,
                           const CapacityConstraint& constraint) const {
  for (SwitchId tor : topo_->tors()) {
    if (constraint.below_min(tor, design_paths()[tor.index()],
                             up_paths[tor.index()])) {
      return false;
    }
  }
  return true;
}

}  // namespace corropt::core
