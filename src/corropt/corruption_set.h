// Registry of links currently corrupting packets.
//
// The controller marks a link here when the monitoring pipeline reports a
// corruption loss rate above the lossy threshold (the paper conservatively
// uses 1e-8, per the IEEE 802.3 requirement) and unmarks it when a repair
// eliminates the corruption. Checkers and the optimizer read this set to
// know which enabled links still incur penalty and which disabled links
// await repair.
#pragma once

#include <map>
#include <vector>

#include "common/ids.h"
#include "common/snapshot.h"
#include "corropt/penalty.h"
#include "topology/topology.h"

namespace corropt::core {

using common::LinkId;

// The IEEE 802.3 corruption threshold the paper adopts for deeming a link
// lossy (Section 3, footnote 2).
inline constexpr double kLossyThreshold = 1e-8;

class CorruptionSet {
 public:
  struct Entry {
    double rate = 0.0;
    // Monotonic detection sequence number: lower = detected earlier.
    // Re-marking an already-known link updates the rate but keeps the
    // original detection position.
    std::uint64_t detected_seq = 0;
  };

  // Marks a link as corrupting with the given link-level loss rate
  // (the worse direction); updates the rate if already marked.
  void mark(LinkId link, double loss_rate);
  void unmark(LinkId link);

  // Bumped on every mark/unmark; together with Topology::state_version()
  // it keys the total_active_penalty cache below.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] bool contains(LinkId link) const {
    return entries_.contains(link);
  }
  // Loss rate of a marked link; 0 for unmarked links.
  [[nodiscard]] double rate(LinkId link) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // All marked links (enabled or not) in increasing link-id order. The
  // order is load-bearing wherever the visit order reaches an observable
  // result (floating-point sums, suspect sets): it depends on the set's
  // contents only, never on its insert/erase history, which a checkpoint
  // restore cannot (and should not) reproduce.
  [[nodiscard]] const std::map<LinkId, Entry>& entries() const {
    return entries_;
  }

  // Corrupting links that are still enabled (and hence incur penalty),
  // in increasing link-id order.
  [[nodiscard]] std::vector<LinkId> active(
      const topology::Topology& topo) const;

  // Same set, ordered by detection time (the naive re-check order of the
  // production system the paper describes).
  [[nodiscard]] std::vector<LinkId> active_in_detection_order(
      const topology::Topology& topo) const;

  // Total penalty per unit time of active corrupting links:
  // sum of I(f_l) over enabled corrupting links, folded in link-id
  // order. O(1) while neither the set (epoch) nor the topology's link
  // state (state_version) changed since the last call with the same
  // topology and penalty function; the entries_ rescan only runs when
  // one of those keys moved.
  [[nodiscard]] double total_active_penalty(
      const topology::Topology& topo, const PenaltyFunction& penalty) const;

  // Checkpointing (DESIGN.md §14): entries in link-id order plus the
  // sequence and epoch counters. Restore drops the memoized penalty
  // cache — it holds a raw Topology pointer from the *source* context,
  // which must never leak into a branch (see the regression test).
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  std::map<LinkId, Entry> entries_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t epoch_ = 0;

  // Memoized total_active_penalty result and the keys it was computed
  // under. Written only from the (single-threaded) control loop; the
  // parallel segment solvers never call total_active_penalty.
  struct PenaltyCache {
    bool valid = false;
    const topology::Topology* topo = nullptr;
    std::uint64_t topo_version = 0;
    std::uint64_t epoch = 0;
    PenaltyFunction penalty = PenaltyFunction::linear();
    double value = 0.0;
  };
  mutable PenaltyCache penalty_cache_;
};

}  // namespace corropt::core
