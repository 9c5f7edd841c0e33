// Topology segmentation (Section 8, "Speeding optimizer").
//
// Corrupting links can be partitioned into segments whose disabling
// decisions are independent: two candidate links interact only when some
// capacity-endangered ToR has both on its upward paths. Solving each
// segment separately shrinks the optimizer's exponential search space
// from 2^|R| to a sum of much smaller powers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitset.h"
#include "common/ids.h"
#include "corropt/path_counter.h"

namespace corropt::core {

struct Segment {
  // Candidate corrupting links whose decisions are coupled.
  std::vector<LinkId> links;
  // Capacity-endangered ToRs whose constraints involve those links.
  std::vector<SwitchId> tors;
};

// Lazily memoized per-ToR upstream switch sets. A link lies on some
// upward path from a ToR (it is in PathCounter::upstream_links({tor}))
// iff its lower endpoint is in the ToR's upstream switch set, so
// membership tests read `link_at(link).lower` against the mask. The set
// follows *installed* links regardless of enabled state, so a built mask
// never goes stale: the cache is valid for the lifetime of the
// topology's structure. The optimizer keeps one for good (DESIGN.md §12),
// making the per-endangered-ToR closure walks of segmentation and
// pruning lookups after the first event that touches a ToR; a mask costs
// switch_count bits, not link_count.
class TorClosureCache {
 public:
  explicit TorClosureCache(const PathCounter& paths) : paths_(&paths) {}

  // The switches reachable upward from `tor` over installed links, `tor`
  // itself included, as a switch_count-bit mask.
  [[nodiscard]] const common::DynamicBitset& closure(SwitchId tor);

 private:
  const PathCounter* paths_;
  // Indexed by switch; empty = not built (a built mask holds its ToR).
  std::vector<common::DynamicBitset> masks_;
  std::vector<std::uint32_t> frontier_;
};

// Partitions `candidates` into independent segments with respect to the
// given endangered ToRs. ToRs with no candidate upstream are dropped
// (their violation, if any, cannot be influenced by the candidates).
// Candidates upstream of no endangered ToR are also dropped — they are
// the "safe to disable" links the optimizer's pruning already handles.
// `closures`, when non-null, memoizes the per-ToR upstream sets across
// calls; the result is identical either way.
[[nodiscard]] std::vector<Segment> segment_candidates(
    const PathCounter& paths, std::span<const LinkId> candidates,
    std::span<const SwitchId> endangered_tors,
    TorClosureCache* closures = nullptr);

}  // namespace corropt::core
