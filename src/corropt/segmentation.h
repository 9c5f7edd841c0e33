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

#include "common/ids.h"
#include "corropt/path_counter.h"

namespace corropt::core {

// One segment as views into the Segmenter's arrays, valid until its
// next split().
struct SegmentView {
  // Candidate corrupting links whose decisions are coupled, id-sorted.
  std::span<const LinkId> links;
  // Capacity-endangered ToRs whose constraints involve those links.
  std::span<const SwitchId> tors;
};

// Partitions candidates into independent segments with respect to the
// endangered ToRs. Owns every array a split needs and reuses them, so a
// split costs O(candidates + endangered ToRs x the candidates' closure
// words) and, once the arrays have grown, allocates nothing.
class Segmenter {
 public:
  // ToRs with no candidate upstream are dropped (their violation, if
  // any, cannot be influenced by the candidates). Candidates upstream of
  // no endangered ToR go to safe() instead of a segment: they are the
  // optimizer's "safe to disable" links.
  // A candidate is upstream of a ToR iff `paths.tor_closure(tor)` holds
  // its lower endpoint's sweep position. The candidates' lower endpoints
  // form one bitset, so each ToR costs one AND per closure word over the
  // candidates' word range. The closures `paths` builds here stay for
  // its later calls.
  // Segments come in the order of their first endangered ToR, each with
  // its links id-sorted and its ToRs in input order.
  void split(PathCounter& paths, std::span<const LinkId> candidates,
             std::span<const SwitchId> endangered_tors);

  [[nodiscard]] std::size_t size() const { return link_offset_.size() - 1; }
  [[nodiscard]] SegmentView segment(std::size_t i) const {
    return {std::span<const LinkId>(seg_links_)
                .subspan(link_offset_[i], link_offset_[i + 1] - link_offset_[i]),
            std::span<const SwitchId>(seg_tors_)
                .subspan(tor_offset_[i], tor_offset_[i + 1] - tor_offset_[i])};
  }
  // The candidates no segment holds, id-sorted.
  [[nodiscard]] std::span<const LinkId> safe() const { return safe_; }

 private:
  std::uint32_t find(std::uint32_t x);

  // Scratch. `lowers_` is all clear between splits; `head_` is read only
  // where `lowers_` holds a bit, so it is never cleared.
  std::vector<LinkId> links_;  // the candidates, id-sorted
  std::vector<std::uint64_t> lowers_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> parent_;      // union-find over links_
  std::vector<std::uint32_t> first_;       // per ToR: first hit, then segment
  std::vector<std::uint32_t> segment_of_;  // per union-find root
  // Output, CSR: segment i holds seg_links_[link_offset_[i] ..
  // link_offset_[i + 1]) and likewise its ToRs.
  std::vector<LinkId> seg_links_;
  std::vector<std::uint32_t> link_offset_{0};
  std::vector<SwitchId> seg_tors_;
  std::vector<std::uint32_t> tor_offset_{0};
  std::vector<LinkId> safe_;
};

}  // namespace corropt::core
