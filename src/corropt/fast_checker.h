// CorrOpt's fast checker (Section 5.1).
//
// When a link starts corrupting packets the controller must decide
// immediately whether disabling it is safe. Conceptually the checker
// recounts every ToR's valley-free paths with the candidate link removed
// and disables it iff no capacity constraint would be violated. Following
// the paper's implementation note — "we check the downstream of l,
// updating the path counts with the same method, beginning with the
// switch directly downstream of l" — the checker caches the network's
// path counts and, per decision, recomputes only the downward closure of
// the candidate's lower endpoint: O(1) work per link of the affected
// subtree rather than of the whole DCN. The cache is a
// PathCounter::LiveCounts keyed on the enabled mask (DESIGN.md §12):
// links other actors flipped (the optimizer, repairs, operators) are
// folded in by the next decision's sync, with no change notes.
//
// Precondition for the incremental path: the network currently satisfies
// every ToR's constraint (the controller maintains this invariant). ToRs
// outside the candidate's downstream closure keep their path counts, so
// only closure ToRs need rechecking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/snapshot.h"
#include "corropt/capacity.h"
#include "corropt/path_counter.h"
#include "obs/sink.h"
#include "topology/topology.h"

namespace corropt::core {

class FastChecker {
 public:
  // The checker mutates link state on `topo` when it disables a link.
  FastChecker(topology::Topology& topo, const CapacityConstraint& constraint);

  // Returns true (and disables `link`) when the network stays feasible
  // with `link` off; otherwise leaves the link enabled and returns false.
  // Already-disabled links return true (idempotent).
  bool try_disable(common::LinkId link);

  // Whether disabling `link` would keep every ToR feasible, without
  // changing any state. Incremental (downstream-closure) evaluation.
  [[nodiscard]] bool can_disable(common::LinkId link);

  // Whether disabling `link` stays feasible even while `also_off` links
  // are simultaneously out of service. Used for collateral-aware
  // decisions (Section 8): repairing a breakout leg takes the healthy
  // siblings down too, so the conservative check masks the whole bundle.
  // Always evaluated with a full sweep.
  [[nodiscard]] bool can_disable(common::LinkId link,
                                 std::span<const common::LinkId> also_off)
      const;

  [[nodiscard]] const PathCounter& paths() const { return paths_; }

  // Attaches observability: per-decision counters ("fastcheck.checks",
  // ".disables", ".cache_refreshes", ".closure_switches") and the
  // "fastcheck.check_s" wall-clock timer. A cache refresh is a decision
  // whose sync had to fold flipped links or fill the cache cold. Pass
  // nullptr to detach.
  void set_sink(obs::Sink* sink);

  // Checkpointing (DESIGN.md §14): the live counts and the enabled mask
  // they were taken under. Serialized faithfully — dropping them instead
  // would make a restored run pay (and count, via
  // fastcheck.cache_refreshes) a cold fill the equivalent fresh run
  // never performs, breaking registry-digest equivalence. Restoring into
  // a topology whose mask differs is exact: the next sync folds the
  // difference.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  struct ClosureResult {
    bool feasible = true;
    // (switch, new up-path count) pairs for the downstream closure,
    // applied to the cache when the disable goes through.
    std::vector<std::pair<common::SwitchId, std::uint64_t>> updates;
  };

  // Brings the live counts up to the current enabled mask.
  void sync();
  // Evaluates the downstream closure of `link`'s lower endpoint with the
  // link masked off.
  ClosureResult evaluate_closure(common::LinkId link);

  topology::Topology* topo_;
  const CapacityConstraint* constraint_;
  PathCounter paths_;
  PathCounter::LiveCounts live_;
  // Scratch for closure traversal.
  std::vector<char> in_closure_;
  std::vector<common::SwitchId> closure_;
  std::vector<std::int32_t> slot_;

  // Observability (all inert when sink_ is null).
  obs::Sink* sink_ = nullptr;
  obs::Counter obs_checks_;
  obs::Counter obs_disables_;
  obs::Counter obs_cache_refreshes_;
  obs::Counter obs_closure_switches_;
  obs::Histogram obs_check_timer_;
};

}  // namespace corropt::core
