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

PathCounter::PathCounter(const topology::Topology& topo) : topo_(&topo) {
  const std::size_t switches = topo.switch_count();
  const std::size_t links = topo.link_count();

  // Flatten per-switch uplink lists into CSR arrays indexed by switch.
  up_offset_.assign(switches + 1, 0);
  up_link_.reserve(links);
  up_upper_.reserve(links);
  for (std::size_t s = 0; s < switches; ++s) {
    up_offset_[s] = static_cast<std::uint32_t>(up_link_.size());
    for (LinkId uplink : topo.switches()[s].uplinks) {
      up_link_.push_back(static_cast<std::uint32_t>(uplink.index()));
      up_upper_.push_back(
          static_cast<std::uint32_t>(topo.link_at(uplink).upper.index()));
    }
  }
  up_offset_[switches] = static_cast<std::uint32_t>(up_link_.size());


  // Inverted CSR: counting sort of links by upper endpoint.
  down_offset_.assign(switches + 1, 0);
  for (const topology::Link& link : topo.links()) {
    ++down_offset_[link.upper.index() + 1];
  }
  for (std::size_t s = 0; s < switches; ++s) {
    down_offset_[s + 1] += down_offset_[s];
  }
  down_lower_.resize(topo.link_count());
  {
    std::vector<std::uint32_t> cursor(down_offset_.begin(),
                                      down_offset_.end() - 1);
    for (const topology::Link& link : topo.links()) {
      down_lower_[cursor[link.upper.index()]++] =
          static_cast<std::uint32_t>(link.lower.index());
    }
  }

  // Level-descending switch order; the leading top_count_ entries are the
  // top-level switches whose path count is the constant 1.
  order_.reserve(switches);
  const int top = topo.top_level();
  for (int level = top; level >= 0; --level) {
    for (SwitchId id : topo.switches_at_level(level)) {
      order_.push_back(static_cast<std::uint32_t>(id.index()));
    }
    if (level == top) top_count_ = order_.size();
  }

  // Packed per-switch sweep metadata, in sweep (level-descending) order.
  // link_base/ubase record fat-tree regularities the hot loop exploits:
  // contiguous uplink link ids (a switch's uplinks are added back to
  // back) let one or two bitset word reads yield the active-bit window;
  // consecutive upper ids (a ToR's aggs, an agg's spines) let the
  // all-active case sum a sequential counts slice; uppers all at the top
  // level (count == 1 always) reduce the sum to a popcount.
  nodes_.reserve(order_.size() - top_count_);
  for (std::size_t i = top_count_; i < order_.size(); ++i) {
    const std::uint32_t s = order_[i];
    SweepNode node;
    node.sw = s;
    node.begin = up_offset_[s];
    node.count = up_offset_[s + 1] - node.begin;
    node.link_base = kScatteredUplinks;
    node.ubase = kScatteredUplinks;
    node.flags = topo.switches()[s].level == 0 ? kNodeTor : 0;
    bool at_top = node.count > 0;
    bool contiguous = node.count > 0 && node.count <= 64;
    bool consecutive_uppers = contiguous;
    for (std::uint32_t u = node.begin; u < node.begin + node.count; ++u) {
      const std::uint32_t k = u - node.begin;
      if (up_link_[u] != up_link_[node.begin] + k) contiguous = false;
      if (up_upper_[u] != up_upper_[node.begin] + k) {
        consecutive_uppers = false;
      }
      if (topo.switches()[up_upper_[u]].level != top) at_top = false;
    }
    if (contiguous) {
      node.link_base = up_link_[node.begin];
      if (consecutive_uppers) node.ubase = up_upper_[node.begin];
      if (at_top) node.flags |= kNodeUppersAtTop;
    }
    nodes_.push_back(node);
  }

  // Design capacity: sweep with every installed link conducting.
  design_paths_.assign(switches, 0);
  for (std::size_t i = 0; i < top_count_; ++i) design_paths_[order_[i]] = 1;
  for (std::size_t i = top_count_; i < order_.size(); ++i) {
    const std::uint32_t s = order_[i];
    std::uint64_t total = 0;
    const std::uint32_t begin = up_offset_[s];
    const std::uint32_t end = up_offset_[s + 1];
    for (std::uint32_t u = begin; u < end; ++u) {
      total += design_paths_[up_upper_[u]];
    }
    design_paths_[s] = total;
  }
}

void PathCounter::up_paths_into(std::vector<std::uint64_t>& out,
                                const LinkMask* extra_off) const {
  out.assign(topo_->switch_count(), 0);
  for (std::size_t i = 0; i < top_count_; ++i) out[order_[i]] = 1;
  const std::uint64_t* ew = topo_->enabled_mask().words().data();
  const std::uint64_t* xw = nullptr;
  if (extra_off != nullptr) {
    assert(extra_off->size() == topo_->link_count());
    xw = extra_off->words().data();
  }
  SliceMemo memo;
  for (const SweepNode& node : nodes_) {
    out[node.sw] = node_sum(node, ew, xw, out.data(), memo);
  }
}

std::uint64_t PathCounter::node_sum(const SweepNode& node,
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
    const std::uint32_t* upper = up_upper_.data() + node.begin;
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
      const std::uint32_t link = up_link_[u];
      const bool active =
          ((enabled_words[link >> 6] >> (link & 63u)) & 1u) != 0 &&
          (masked_words == nullptr ||
           ((masked_words[link >> 6] >> (link & 63u)) & 1u) == 0);
      if (active) total += counts[up_upper_[u]];
    }
  }
  return total;
}

std::uint64_t PathCounter::mark_masked_closure(
    std::span<const LinkId> masked_links, SweepScratch& scratch) const {
  const std::size_t switches = topo_->switch_count();
  if (scratch.stamp.size() != switches) scratch.stamp.assign(switches, 0);
  const std::uint64_t epoch = ++scratch.epoch;
  scratch.frontier.clear();

  // Seed with the lower endpoints of masked links that are actually
  // conducting (masking an already-disabled link changes nothing).
  const common::DynamicBitset& enabled = topo_->enabled_mask();
  for (LinkId link : masked_links) {
    if (!enabled.test(link.index())) continue;
    const std::uint32_t lower =
        static_cast<std::uint32_t>(topo_->link_at(link).lower.index());
    if (scratch.stamp[lower] != epoch) {
      scratch.stamp[lower] = epoch;
      scratch.frontier.push_back(lower);
    }
  }

  // Downward closure: every switch with an upward path through a masked
  // link. Counts of switches outside the closure keep their baseline.
  for (std::size_t head = 0; head < scratch.frontier.size(); ++head) {
    const std::uint32_t s = scratch.frontier[head];
    const std::uint32_t begin = down_offset_[s];
    const std::uint32_t end = down_offset_[s + 1];
    for (std::uint32_t d = begin; d < end; ++d) {
      const std::uint32_t lower = down_lower_[d];
      if (scratch.stamp[lower] != epoch) {
        scratch.stamp[lower] = epoch;
        scratch.frontier.push_back(lower);
      }
    }
  }
  return epoch;
}

void PathCounter::up_paths_masked_from_baseline(
    std::vector<std::uint64_t>& out, std::span<const std::uint64_t> baseline,
    const LinkMask& masked, std::span<const LinkId> masked_links,
    SweepScratch& scratch) const {
  assert(baseline.size() == topo_->switch_count());
  assert(masked.size() == topo_->link_count());
  out.assign(baseline.begin(), baseline.end());
  const std::uint64_t epoch = mark_masked_closure(masked_links, scratch);

  // Recompute affected switches in level-descending order; `out` holds
  // the merged counts, so uplink reads need no affected/unaffected split.
  const std::uint64_t* ew = topo_->enabled_mask().words().data();
  const std::uint64_t* xw = masked.words().data();
  SliceMemo memo;
  for (const SweepNode& node : nodes_) {
    if (scratch.stamp[node.sw] != epoch) continue;
    out[node.sw] = node_sum(node, ew, xw, out.data(), memo);
  }
}

void PathCounter::refresh_counts_after_changes(
    std::vector<std::uint64_t>& counts, std::span<const LinkId> changed_links,
    std::vector<SwitchId>* touched_tors, SweepScratch& scratch) const {
  assert(counts.size() == topo_->switch_count());
  if (touched_tors != nullptr) touched_tors->clear();

  const std::size_t switches = topo_->switch_count();
  if (scratch.stamp.size() != switches) scratch.stamp.assign(switches, 0);
  const std::uint64_t epoch = ++scratch.epoch;
  scratch.frontier.clear();

  // Seed every changed link's lower endpoint unconditionally: whether
  // the flip enabled or disabled the link, the counts below it moved.
  for (LinkId link : changed_links) {
    const std::uint32_t lower =
        static_cast<std::uint32_t>(topo_->link_at(link).lower.index());
    if (scratch.stamp[lower] != epoch) {
      scratch.stamp[lower] = epoch;
      scratch.frontier.push_back(lower);
    }
  }
  for (std::size_t head = 0; head < scratch.frontier.size(); ++head) {
    const std::uint32_t s = scratch.frontier[head];
    const std::uint32_t begin = down_offset_[s];
    const std::uint32_t end = down_offset_[s + 1];
    for (std::uint32_t d = begin; d < end; ++d) {
      const std::uint32_t lower = down_lower_[d];
      if (scratch.stamp[lower] != epoch) {
        scratch.stamp[lower] = epoch;
        scratch.frontier.push_back(lower);
      }
    }
  }

  // Recompute closure members in level-descending order against the
  // current enabled mask; out-of-closure reads stay valid (their counts
  // did not change). Nodes within the ToR level come in id order, so
  // touched_tors is id-sorted for the caller's merge.
  const std::uint64_t* ew = topo_->enabled_mask().words().data();
  SliceMemo memo;
  for (const SweepNode& node : nodes_) {
    if (scratch.stamp[node.sw] != epoch) continue;
    counts[node.sw] = node_sum(node, ew, nullptr, counts.data(), memo);
    if (touched_tors != nullptr && (node.flags & kNodeTor) != 0) {
      touched_tors->push_back(SwitchId(node.sw));
    }
  }
}

const std::vector<std::uint64_t>& PathCounter::sync_live_counts(
    LiveCounts& live) const {
  const std::span<const std::uint64_t> current =
      topo_->enabled_mask().words();
  if (live.counts.size() != topo_->switch_count() ||
      live.seen.size() != current.size()) {
    up_paths_into(live.counts);
    live.seen.assign(current.begin(), current.end());
    return live.counts;
  }
  live.changed.clear();
  for (std::size_t w = 0; w < current.size(); ++w) {
    std::uint64_t flipped = live.seen[w] ^ current[w];
    if (flipped == 0) continue;
    live.seen[w] = current[w];
    for (; flipped != 0; flipped &= flipped - 1) {
      live.changed.push_back(LinkId(static_cast<LinkId::underlying_type>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(flipped)))));
    }
  }
  if (!live.changed.empty()) {
    refresh_counts_after_changes(live.counts, live.changed, nullptr,
                                 live.scratch);
  }
  return live.counts;
}

void PathCounter::masked_violated_tors_into(
    std::vector<SwitchId>& violated, std::span<const std::uint64_t> baseline,
    std::span<const SwitchId> baseline_violated, const LinkMask& masked,
    std::span<const LinkId> masked_links, const CapacityConstraint& constraint,
    std::vector<std::uint64_t>& counts, SweepScratch& scratch) const {
  assert(baseline.size() == topo_->switch_count());
  assert(masked.size() == topo_->link_count());
  violated.clear();
  counts.assign(baseline.begin(), baseline.end());
  const std::uint64_t epoch = mark_masked_closure(masked_links, scratch);

  const std::uint64_t* ew = topo_->enabled_mask().words().data();
  const std::uint64_t* xw = masked.words().data();
  SliceMemo memo;
  for (const SweepNode& node : nodes_) {
    if (scratch.stamp[node.sw] != epoch) continue;
    const std::uint64_t total = node_sum(node, ew, xw, counts.data(), memo);
    counts[node.sw] = total;
    if ((node.flags & kNodeTor) != 0 &&
        constraint.below_min(SwitchId(node.sw), design_paths_[node.sw],
                             total)) {
      violated.push_back(SwitchId(node.sw));
    }
  }

  // ToRs outside the closure keep their baseline verdict. Nodes are in
  // id order within the ToR level, so both lists are id-sorted; merge.
  if (!baseline_violated.empty()) {
    std::size_t before = violated.size();
    for (SwitchId tor : baseline_violated) {
      if (scratch.stamp[tor.index()] != epoch) violated.push_back(tor);
    }
    if (before != 0 && violated.size() != before) {
      std::inplace_merge(violated.begin(),
                         violated.begin() + static_cast<std::ptrdiff_t>(before),
                         violated.end());
    }
  }
}

std::vector<std::uint64_t> PathCounter::up_paths(
    const LinkMask* extra_off) const {
  std::vector<std::uint64_t> paths;
  up_paths_into(paths, extra_off);
  return paths;
}

std::vector<SwitchId> PathCounter::violated_tors(
    std::span<const std::uint64_t> up_paths,
    const CapacityConstraint& constraint) const {
  std::vector<SwitchId> violated;
  for (SwitchId tor : topo_->tors()) {
    if (constraint.below_min(tor, design_paths_[tor.index()],
                             up_paths[tor.index()])) {
      violated.push_back(tor);
    }
  }
  return violated;
}

bool PathCounter::feasible(std::span<const std::uint64_t> up_paths,
                           const CapacityConstraint& constraint) const {
  for (SwitchId tor : topo_->tors()) {
    if (constraint.below_min(tor, design_paths_[tor.index()],
                             up_paths[tor.index()])) {
      return false;
    }
  }
  return true;
}

void PathCounter::upstream_links_into(LinkMask& mask,
                                      std::vector<char>& visited_scratch,
                                      std::span<const SwitchId> from) const {
  mask.assign(topo_->link_count());
  visited_scratch.assign(topo_->switch_count(), 0);
  // The upstream closure follows *installed* links (enabled or not):
  // a disabled link upstream of a violated ToR still belongs to the
  // pruned sub-topology, since re-enabling decisions may involve it.
  std::vector<std::uint32_t> frontier;
  frontier.reserve(from.size());
  for (SwitchId id : from) {
    if (!visited_scratch[id.index()]) {
      visited_scratch[id.index()] = 1;
      frontier.push_back(static_cast<std::uint32_t>(id.index()));
    }
  }
  while (!frontier.empty()) {
    const std::uint32_t current = frontier.back();
    frontier.pop_back();
    const std::uint32_t begin = up_offset_[current];
    const std::uint32_t end = up_offset_[current + 1];
    for (std::uint32_t u = begin; u < end; ++u) {
      mask.set(up_link_[u]);
      const std::uint32_t upper = up_upper_[u];
      if (!visited_scratch[upper]) {
        visited_scratch[upper] = 1;
        frontier.push_back(upper);
      }
    }
  }
}

LinkMask PathCounter::upstream_links(std::span<const SwitchId> from) const {
  LinkMask mask;
  std::vector<char> visited;
  upstream_links_into(mask, visited, from);
  return mask;
}

std::uint64_t count_paths_brute_force(const topology::Topology& topo,
                                      SwitchId from,
                                      const LinkMask* extra_off) {
  const topology::Switch& sw = topo.switch_at(from);
  if (sw.level == topo.top_level()) return 1;
  std::uint64_t total = 0;
  for (LinkId uplink : sw.uplinks) {
    if (!topo.is_enabled(uplink)) continue;
    if (extra_off != nullptr && extra_off->test(uplink.index())) continue;
    total += count_paths_brute_force(topo, topo.link_at(uplink).upper,
                                     extra_off);
  }
  return total;
}

}  // namespace corropt::core
