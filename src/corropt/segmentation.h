// Topology segmentation (Section 8, "Speeding optimizer").
//
// Corrupting links can be partitioned into segments whose disabling
// decisions are independent: two candidate links interact only when some
// capacity-endangered ToR has both on its upward paths. Solving each
// segment separately shrinks the optimizer's exponential search space
// from 2^|R| to a sum of much smaller powers.
#pragma once

#include <span>
#include <vector>

#include "common/ids.h"
#include "corropt/path_counter.h"

namespace corropt::core {

struct Segment {
  // Candidate corrupting links whose decisions are coupled.
  std::vector<LinkId> links;
  // Capacity-endangered ToRs whose constraints involve those links.
  std::vector<SwitchId> tors;
};

// Partitions `candidates` into independent segments with respect to the
// given endangered ToRs. ToRs with no candidate upstream are dropped
// (their violation, if any, cannot be influenced by the candidates).
// Candidates upstream of no endangered ToR are also dropped — they are
// the "safe to disable" links: the optimizer's pruning reads them off as
// the candidates no segment holds.
// A candidate is upstream of a ToR iff `paths.tor_closure(tor)` holds
// its lower endpoint's sweep position. The candidates' lower endpoints
// form one bitset, so each ToR costs one AND per closure word over the
// candidates' word range. The closures `paths` builds here stay for its
// later calls.
// Segments come in the order of their first endangered ToR, each with
// its links id-sorted and its ToRs in input order.
[[nodiscard]] std::vector<Segment> segment_candidates(
    PathCounter& paths, std::span<const LinkId> candidates,
    std::span<const SwitchId> endangered_tors);

}  // namespace corropt::core
