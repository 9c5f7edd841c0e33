// Valley-free path counting (Section 5.1, "fast checker" machinery).
//
// The naive way to evaluate a ToR's available capacity enumerates every
// ToR-to-spine path, which is infeasible at DCN scale. The paper's O(|E|)
// dynamic program instead sweeps level by level from the spine downward:
// a spine switch has one (empty) path to itself; every other switch's
// path count is the sum of its active uplinks' upper-endpoint counts.
//
// The sweep is the hottest loop in the system (every optimizer pruning
// pass and every full feasibility recount runs it), so a FabricIndex
// flattens the topology's per-switch uplink vectors into CSR arrays once
// per wiring: one level-descending switch order plus contiguous
// (link index, upper switch index) pairs per switch. A sweep then streams
// through two uint32 arrays and two bitsets instead of pointer-chasing
// Switch and Link structs. A PathCounter pairs that shared index with a
// topology's link state and its live counts.
//
// PathCounter is also the only code that walks closures (DESIGN.md §3).
// Every switch set is a bitset indexed by sweep position, so ascending
// bit order is level-descending order. One routine recounts a downward
// closure in the live counts (their own refresh, the optimizer's pruning
// pass and the fast checker's decision all call it; the last two undo
// it), and one builder makes the per-ToR
// upward closures that segmentation, pruning and the optimizer's sweep
// regions read.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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

// The fabric's wiring as the sweeps read it, built once per topology
// shape. Immutable and free of link state and topology pointers, so one
// index is shared read-only (shared_ptr<const>) by every PathCounter
// over a topology with this wiring, copies of the topology included.
struct FabricIndex {
  explicit FabricIndex(const topology::Topology& topo);

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

  // Contiguous uplink (link index, upper switch index) pairs of a switch.
  struct UplinkSpan {
    const std::uint32_t* link;
    const std::uint32_t* upper;
    std::size_t count;
  };
  [[nodiscard]] UplinkSpan uplinks_of(std::size_t switch_index) const {
    const std::uint32_t begin = up_offset[switch_index];
    const std::uint32_t end = up_offset[switch_index + 1];
    return {up_link.data() + begin, up_upper.data() + begin,
            static_cast<std::size_t>(end - begin)};
  }

  // Path counts through every installed link regardless of enabled state:
  // the topology's design capacity, the denominator of the constraint.
  std::vector<std::uint64_t> design_paths;
  // CSR: uplinks grouped by lower-switch index.
  std::vector<std::uint32_t> up_offset;  // switch_count + 1 entries
  std::vector<std::uint32_t> up_link;    // link index per uplink
  std::vector<std::uint32_t> up_upper;   // upper switch index per uplink
  // Switch indices ordered top level first, then strictly descending
  // level; a top-down sweep visiting this order sees every switch after
  // all of its uplink upper endpoints. The leading top_count entries are
  // the top level (path count 1).
  std::vector<std::uint32_t> order;
  std::size_t top_count = 0;
  std::vector<std::uint32_t> sweep_pos;  // position of each switch in order
  std::vector<SweepNode> nodes;          // non-top switches, sweep order
  // Inverted CSR for downward closures: each switch's downlinks and
  // their lower endpoints (duplicates possible with parallel links).
  std::vector<std::uint32_t> down_offset;  // switch_count + 1 entries
  std::vector<std::uint32_t> down_link;
  std::vector<std::uint32_t> down_lower;
};

// Calls visit(link) for every link whose bit differs between `seen` and
// `mask`, in id order, then makes `seen` equal `mask`: one XOR per word,
// so a link flipped and flipped back costs nothing. Returns false, having
// visited nothing, when `seen` was empty (no mask seen yet). Each reader
// of a controller's shared counts finds its own flips this way.
template <typename Visit>
bool for_each_flip(std::vector<std::uint64_t>& seen,
                   std::span<const std::uint64_t> mask, Visit&& visit) {
  if (seen.empty()) {
    seen.assign(mask.begin(), mask.end());
    return false;
  }
  for (std::size_t w = 0; w < mask.size(); ++w) {
    std::uint64_t flipped = seen[w] ^ mask[w];
    if (flipped == 0) continue;
    seen[w] = mask[w];
    for (; flipped != 0; flipped &= flipped - 1) {
      visit(LinkId(static_cast<LinkId::underlying_type>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(flipped)))));
    }
  }
  return true;
}

// The path counts of one topology: its wiring (a shared FabricIndex) and
// the one set of live counts that follows its enabled mask. A controller
// owns the only PathCounter of its topology; the fast checker, the
// optimizer and the simulator's components borrow it (DESIGN.md §12).
class PathCounter {
 public:
  // Builds an index of `topo`'s wiring, or shares `index`, which must
  // come from `topo` or a topology with the same wiring (a copy).
  explicit PathCounter(const topology::Topology& topo);
  PathCounter(const topology::Topology& topo,
              std::shared_ptr<const FabricIndex> index);

  // paths[switch.index()] = number of upward paths from the switch to the
  // top level through links that are enabled and not masked. `extra_off`
  // may be null (no extra removals).
  [[nodiscard]] std::vector<std::uint64_t> up_paths(
      const LinkMask* extra_off = nullptr) const;

  // Allocation-free variant: writes the counts into `out` (resized to
  // switch_count).
  void up_paths_into(std::vector<std::uint64_t>& out,
                     const LinkMask* extra_off = nullptr) const;

  // The live counts, equal to up_paths() now. The first call is a full
  // sweep; later calls recount only the downward closure of the links
  // flipped since the previous call, seeded from every flipped link
  // (a just-disabled link no longer conducts, but its removal still
  // changed the counts below it). Keyed on the mask itself, so nobody
  // reports link changes and restores that rewind the state version stay
  // exact.
  const std::vector<std::uint64_t>& live_counts();

  // The fast checker's decision: whether every ToR still meets
  // `constraint` with the enabled `link` off. Brings the live counts up
  // to date, then recounts the downward closure of the link's lower
  // endpoint in place. When `keep` and the answer is yes the new counts
  // stay and the caller must disable `link` before the next read;
  // otherwise the closure's old counts are put back.
  struct DisableCheck {
    bool feasible = true;
    std::size_t closure_switches = 0;  // switches recounted
  };
  DisableCheck check_disable(LinkId link, const CapacityConstraint& constraint,
                             bool keep);

  // The optimizer's pruning pass: the ToRs violated under `masked`,
  // found while recounting only the masked links' downward closure in
  // place in the live counts, which must be current (read since the last
  // flip). Like a refused check_disable, it logs each recounted switch's
  // old count and puts it back, so the live counts end unchanged.
  // `required` is required_paths(constraint) for the constraint in force
  // and `live_violated` violated_tors(live counts, constraint). Equals
  // violated_tors(up_paths(&masked), constraint), in ToR id order.
  // `masked_links` must list every set bit of `masked` (already-disabled
  // extras are harmless).
  void masked_violated_tors(std::vector<SwitchId>& violated,
                            std::span<const SwitchId> live_violated,
                            const LinkMask& masked,
                            std::span<const LinkId> masked_links,
                            std::span<const std::uint64_t> required);

  // Minimum path count per switch index: constraint.min_paths of each
  // ToR, 0 for every other switch. A ToR violates the constraint under
  // counts c iff c[tor] < required[tor], exactly: for an integer a,
  // a < ceil(x) iff a < x, and min_paths and below_min compute the same
  // x. The optimizer keeps one per constraint version.
  [[nodiscard]] std::vector<std::uint64_t> required_paths(
      const CapacityConstraint& constraint) const;

  // The switches reachable upward from `tor` over installed links,
  // disabled ones included, `tor` itself included: a switch_count-bit
  // mask indexed by sweep position. A link lies on some upward path from
  // the ToR iff the mask holds sweep_pos[lower]. Built at the first
  // request and kept for good, since it depends only on the wiring.
  const common::DynamicBitset& tor_closure(SwitchId tor);

  [[nodiscard]] const std::vector<std::uint64_t>& design_paths() const {
    return index_->design_paths;
  }

  // ToRs whose available paths fall below their constraint under the
  // given counts.
  [[nodiscard]] std::vector<SwitchId> violated_tors(
      std::span<const std::uint64_t> up_paths,
      const CapacityConstraint& constraint) const;

  // True when no ToR violates its constraint under the given counts.
  [[nodiscard]] bool feasible(std::span<const std::uint64_t> up_paths,
                              const CapacityConstraint& constraint) const;

  [[nodiscard]] const std::shared_ptr<const FabricIndex>& index() const {
    return index_;
  }
  [[nodiscard]] const topology::Topology& topo() const { return *topo_; }

 private:
  // Adds switch `sw` to the closure the next recount_closure walks.
  void mark(std::uint32_t sw);
  // The one downward-closure walk. Visits the marked switches and every
  // switch below them over enabled links, in ascending sweep position;
  // a switch's lower endpoints sit later in that order, so discovery and
  // recount share one pass. Each visited switch's count in `counts` is
  // summed over its enabled uplinks not in `masked_words` (null: none)
  // and replaced by visit(node, sum). Clears the marks; returns the
  // number of switches visited.
  template <typename Visit>
  std::size_t recount_closure(std::uint64_t* counts,
                              const std::uint64_t* masked_words,
                              Visit&& visit);

  const topology::Topology* topo_;
  std::shared_ptr<const FabricIndex> index_;
  // The live counts and the enabled-mask words they were taken under.
  struct LiveCounts {
    std::vector<std::uint64_t> counts;
    std::vector<std::uint64_t> seen;
  };
  LiveCounts live_;
  // The marked switches as bits indexed by sweep position, all clear
  // between recounts, and the range of words holding marks.
  std::vector<std::uint64_t> closure_;
  std::size_t closure_lo_ = SIZE_MAX;
  std::size_t closure_hi_ = 0;
  // (switch, old count) per switch a fast-checker decision or a masked
  // pass recounted.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> undo_;
  // Per-switch upward closures; empty = not built.
  std::vector<common::DynamicBitset> tor_closures_;
};

}  // namespace corropt::core
