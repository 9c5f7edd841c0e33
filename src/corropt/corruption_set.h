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

  // Loss rate of a marked link; 0 for unmarked links. An index into the
  // dense per-link array, no map lookup.
  [[nodiscard]] double rate(LinkId link) const {
    return link.index() < rate_of_.size() ? rate_of_[link.index()] : 0.0;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // All marked links (enabled or not) in increasing link-id order. The
  // order is load-bearing wherever the visit order reaches an observable
  // result (floating-point sums, suspect sets): it depends on the set's
  // contents only, never on its insert/erase history, which a checkpoint
  // restore cannot (and should not) reproduce.
  [[nodiscard]] const std::map<LinkId, Entry>& entries() const {
    return entries_;
  }

  // Writes the corrupting links that are still enabled (and hence incur
  // penalty) into `out`, in increasing link-id order: a filtered copy of
  // the marked-links vector, no map walk.
  void active(const topology::Topology& topo, std::vector<LinkId>& out) const;

  // Same set, ordered by detection time (the naive re-check order of the
  // production system the paper describes).
  [[nodiscard]] std::vector<LinkId> active_in_detection_order(
      const topology::Topology& topo) const;

  // Total penalty per unit time of active corrupting links:
  // sum of I(f_l) over enabled corrupting links, folded in link-id
  // order. O(1) while neither the set (epoch) nor the topology's link
  // state (state_version) changed since the last call with the same
  // topology and penalty function; the marked-links rescan only runs
  // when one of those keys moved.
  [[nodiscard]] double total_active_penalty(
      const topology::Topology& topo, const PenaltyFunction& penalty) const;

  // Checkpointing (DESIGN.md §14): entries in link-id order plus the
  // sequence and epoch counters. Restore rebuilds the marked links and
  // the rate array from the entries and drops the memoized penalty
  // cache — it holds a raw Topology pointer from the *source* context,
  // which must never leak into a branch (see the regression test).
  // `link_count` is the size of the fabric the set lives on: a restored
  // link id at or past it throws std::runtime_error before anything is
  // sized by it.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r, std::size_t link_count);

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c, std::size_t link_count);

  std::map<LinkId, Entry> entries_;
  // Derived state, written by mark/unmark, rebuilt on restore, never
  // serialized: the keys of entries_ in id order, and entries_[link].rate
  // indexed by link, 0 for unmarked links, as long as the highest link
  // ever marked.
  std::vector<LinkId> marked_;
  std::vector<double> rate_of_;
  std::uint64_t next_seq_ = 0;
  // Bumped on every mark/unmark; together with Topology::state_version()
  // it keys the total_active_penalty cache.
  std::uint64_t epoch_ = 0;

  // Memoized total_active_penalty result and the keys it was computed
  // under. Written only from the (single-threaded) control loop.
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
