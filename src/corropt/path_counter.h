// Valley-free path counting (Section 5.1, "fast checker" machinery).
//
// The naive way to evaluate a ToR's available capacity enumerates every
// ToR-to-spine path, which is infeasible at DCN scale. The paper's O(|E|)
// dynamic program instead sweeps level by level from the spine downward:
// a spine switch has one (empty) path to itself; every other switch's
// path count is the sum of its active uplinks' upper-endpoint counts.
//
// The sweep is the hottest loop in the system (every optimizer pruning
// pass and every full feasibility recount runs it), so the counter
// flattens the topology's per-switch uplink vectors into CSR arrays at
// construction: one level-descending switch order plus contiguous
// (link index, upper switch index) pairs per switch. A sweep then streams
// through two uint32 arrays and two bitsets instead of pointer-chasing
// Switch and Link structs. This module also keeps the brute-force DFS
// enumerator used to verify the sweep in tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitset.h"
#include "common/ids.h"
#include "corropt/capacity.h"
#include "topology/topology.h"

namespace corropt::core {

using common::LinkId;
using common::SwitchId;

// Per-link mask; masked links are treated as removed in addition to any
// administratively disabled links. Sized topology.link_count().
using LinkMask = common::DynamicBitset;

class PathCounter {
 public:
  explicit PathCounter(const topology::Topology& topo);

  // paths[switch.index()] = number of upward paths from the switch to the
  // top level through links that are enabled and not masked. `extra_off`
  // may be null (no extra removals).
  [[nodiscard]] std::vector<std::uint64_t> up_paths(
      const LinkMask* extra_off = nullptr) const;

  // Allocation-free variant: writes the counts into `out` (resized to
  // switch_count). The optimizer's pruning pass calls this once per run
  // with a reused scratch buffer.
  void up_paths_into(std::vector<std::uint64_t>& out,
                     const LinkMask* extra_off = nullptr) const;

  // Reusable state for up_paths_masked_from_baseline: per-switch visit
  // stamps (epoch-tagged so they are never cleared) plus a BFS frontier.
  struct SweepScratch {
    std::vector<std::uint64_t> stamp;
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> frontier;
  };

  // Incremental masked recount. `baseline` must hold the unmasked counts
  // for the topology's *current* enabled state (i.e. what up_paths_into
  // with no mask would produce right now). Only switches in the downward
  // closure of the masked links' lower endpoints can differ from the
  // baseline, so the sweep recomputes exactly those and copies the rest.
  // Semantically identical to up_paths_into(out, &masked), far cheaper
  // when few links are masked. `masked_links` must list every set bit of
  // `masked` (extra entries for already-disabled links are harmless).
  void up_paths_masked_from_baseline(std::vector<std::uint64_t>& out,
                                     std::span<const std::uint64_t> baseline,
                                     const LinkMask& masked,
                                     std::span<const LinkId> masked_links,
                                     SweepScratch& scratch) const;

  // In-place delta refresh for long-lived count caches. `counts` must
  // hold the unmasked up-path counts of a *previous* enabled state that
  // differs from the topology's current state only on `changed_links`
  // (each listed link flipped enabled<->disabled any number of times;
  // unchanged links may appear too — they just widen the recount).
  // Recomputes the downward closure of the changed links' lower
  // endpoints against the current enabled mask, leaving every other
  // entry untouched; the result equals what up_paths_into would produce
  // from scratch. Unlike the masked variants above, the
  // closure is seeded from *all* changed links, conducting or not: a
  // just-disabled link no longer conducts but its removal still changed
  // its downstream counts.
  void refresh_counts_after_changes(std::vector<std::uint64_t>& counts,
                                    std::span<const LinkId> changed_links,
                                    SweepScratch& scratch) const;

  // A long-lived count cache that follows the topology's enabled mask:
  // `counts` hold the unmasked up-path counts under the enabled state
  // whose bitset words are `seen`. Empty until the first sync. Every
  // count cache in the corropt layer is one of these (DESIGN.md §12).
  struct LiveCounts {
    std::vector<std::uint64_t> counts;
    std::vector<std::uint64_t> seen;
    // Links the last sync folded in, id-sorted; empty after a cold fill.
    std::vector<LinkId> changed;
    SweepScratch scratch;
  };

  // Brings `live` up to the current enabled mask and returns its counts,
  // equal to what up_paths() would produce. The links whose bit differs
  // from `live.seen` (one XOR per mask word) are folded in through
  // refresh_counts_after_changes, so an unchanged mask, including a link
  // disabled and re-enabled since the last sync, costs one word scan. An
  // empty cache is filled by a full up_paths_into. The cache is keyed on
  // the mask itself rather than the state version, so it needs no change
  // notes and stays exact across checkpoint restores that rewind the
  // version.
  const std::vector<std::uint64_t>& sync_live_counts(LiveCounts& live) const;

  // Fused variant for the optimizer's pruning pass: computes the ToRs
  // violated under `masked` directly during the incremental recount,
  // avoiding the separate all-ToRs scan. `baseline_violated` must be
  // violated_tors(baseline, constraint) (ToRs outside the closure keep
  // their baseline status). Result equals
  // violated_tors(up_paths(&masked), constraint), in ToR id order.
  // `counts` is caller-owned scratch for the merged counts.
  void masked_violated_tors_into(std::vector<SwitchId>& violated,
                                 std::span<const std::uint64_t> baseline,
                                 std::span<const SwitchId> baseline_violated,
                                 const LinkMask& masked,
                                 std::span<const LinkId> masked_links,
                                 const CapacityConstraint& constraint,
                                 std::vector<std::uint64_t>& counts,
                                 SweepScratch& scratch) const;

  // Path counts through every installed link regardless of enabled state:
  // the topology's design capacity, the denominator of the constraint.
  [[nodiscard]] const std::vector<std::uint64_t>& design_paths() const {
    return design_paths_;
  }

  // ToRs whose available paths fall below their constraint under the
  // given counts.
  [[nodiscard]] std::vector<SwitchId> violated_tors(
      std::span<const std::uint64_t> up_paths,
      const CapacityConstraint& constraint) const;

  // True when no ToR violates its constraint under the given counts.
  [[nodiscard]] bool feasible(std::span<const std::uint64_t> up_paths,
                              const CapacityConstraint& constraint) const;

  // Links lying on some upward path from any switch in `from`, disabled
  // links included: the upstream closure of the optimizer's topology
  // pruning, which reads it as TorClosureCache's switch sets.
  [[nodiscard]] LinkMask upstream_links(
      std::span<const SwitchId> from) const;

  // --- CSR accessors (used by the optimizer's restricted region sweeps) --
  // Switch indices ordered top level first, then strictly descending
  // level; a top-down sweep visiting this order sees every switch after
  // all of its uplink upper endpoints.
  [[nodiscard]] std::span<const std::uint32_t> sweep_order() const {
    return order_;
  }
  // Number of leading sweep_order entries at the top level (path count 1).
  [[nodiscard]] std::size_t top_switch_count() const { return top_count_; }
  // Contiguous uplink (link index, upper switch index) pairs of a switch.
  struct UplinkSpan {
    const std::uint32_t* link;
    const std::uint32_t* upper;
    std::size_t count;
  };
  [[nodiscard]] UplinkSpan uplinks_of(std::size_t switch_index) const {
    const std::uint32_t begin = up_offset_[switch_index];
    const std::uint32_t end = up_offset_[switch_index + 1];
    return {up_link_.data() + begin, up_upper_.data() + begin,
            static_cast<std::size_t>(end - begin)};
  }

  [[nodiscard]] const topology::Topology& topo() const { return *topo_; }

 private:
  // Sentinel: the switch's uplink link ids (or upper switch ids) are not
  // one contiguous run of <= 64, so sweeps fall back to per-link tests.
  static constexpr std::uint32_t kScatteredUplinks = 0xFFFFFFFFu;

  // Node flags.
  static constexpr std::uint32_t kNodeUppersAtTop = 1u;  // all uppers top
  static constexpr std::uint32_t kNodeTor = 2u;          // level-0 switch

  // Per-switch sweep metadata packed into one sequential stream, in
  // level-descending order (top-level switches excluded: their count is
  // the constant 1). One 24-byte load replaces lookups in five arrays.
  struct SweepNode {
    std::uint32_t sw;         // switch index
    std::uint32_t begin;      // CSR offset of the first uplink
    std::uint32_t link_base;  // first link id, or kScatteredUplinks
    std::uint32_t ubase;      // first upper id if consecutive, else sentinel
    std::uint32_t count;      // number of uplinks
    std::uint32_t flags;      // kNode* bits
  };

  // One-entry memo for consecutive switches sharing the same fully
  // active upper slice (pod ToRs all sum the same aggs). Valid within a
  // single sweep: every counts[] entry is written at most once, before
  // any lower level reads it, so a recorded slice sum never goes stale.
  struct SliceMemo {
    std::uint32_t ubase = 0;
    std::uint32_t count = 0;
    std::uint64_t sum = 0;
    bool valid = false;
  };

  // Sum of counts[upper] over the node's uplinks that are enabled and
  // (when masked_words != nullptr) not masked; the word-level hot loop
  // shared by the full and incremental sweeps.
  [[nodiscard]] std::uint64_t node_sum(const SweepNode& node,
                                       const std::uint64_t* enabled_words,
                                       const std::uint64_t* masked_words,
                                       const std::uint64_t* counts,
                                       SliceMemo& memo) const;

  // Stamps the downward closure of the conducting masked links into
  // scratch (epoch-tagged) and returns the new epoch.
  std::uint64_t mark_masked_closure(std::span<const LinkId> masked_links,
                                    SweepScratch& scratch) const;

  const topology::Topology* topo_;
  std::vector<std::uint64_t> design_paths_;
  // CSR: uplinks grouped by lower-switch index.
  std::vector<std::uint32_t> up_offset_;  // switch_count + 1 entries
  std::vector<std::uint32_t> up_link_;    // link index per uplink
  std::vector<std::uint32_t> up_upper_;   // upper switch index per uplink
  std::vector<std::uint32_t> order_;      // level-descending switch indices
  std::size_t top_count_ = 0;
  std::vector<SweepNode> nodes_;          // non-top switches, sweep order
  // Inverted CSR for downward closures: lower endpoints of each switch's
  // downlinks (duplicates possible with parallel links; harmless).
  std::vector<std::uint32_t> down_offset_;  // switch_count + 1 entries
  std::vector<std::uint32_t> down_lower_;
};

// Exhaustive DFS path enumeration; exponential, for tests only.
[[nodiscard]] std::uint64_t count_paths_brute_force(
    const topology::Topology& topo, SwitchId from,
    const LinkMask* extra_off = nullptr);

}  // namespace corropt::core
