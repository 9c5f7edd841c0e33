// CorrOpt's fast checker (Section 5.1).
//
// When a link starts corrupting packets the controller must decide
// immediately whether disabling it is safe. Conceptually the checker
// recounts every ToR's valley-free paths with the candidate link removed
// and disables it iff no capacity constraint would be violated. Following
// the paper's implementation note — "we check the downstream of l,
// updating the path counts with the same method, beginning with the
// switch directly downstream of l" — the checker asks the controller's
// PathCounter (shared with the optimizer, keyed on the enabled mask;
// DESIGN.md §12), which recounts, in place in its live counts, only the
// downward closure of the candidate's lower endpoint with the same
// closure walk the live counts use: O(1) work per link of the affected
// subtree rather than of the whole DCN. A refused disable or a mere
// query puts the closure's old counts back. Links other actors flipped
// are folded in by the next read, with no change notes; the checker
// itself keeps no state, so a checkpoint holds nothing of it.
//
// Precondition for the incremental path: the network currently satisfies
// every ToR's constraint (the controller maintains this invariant). ToRs
// outside the candidate's downstream closure keep their path counts, so
// only closure ToRs need rechecking.
#pragma once

#include <span>

#include "common/ids.h"
#include "corropt/capacity.h"
#include "corropt/path_counter.h"
#include "obs/sink.h"
#include "topology/topology.h"

namespace corropt::core {

class FastChecker {
 public:
  // The checker disables links on `topo` and reads and updates the live
  // counts of `paths`, which must count `topo`.
  FastChecker(topology::Topology& topo, PathCounter& paths,
              const CapacityConstraint& constraint);

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

  // Attaches observability: per-decision counters ("fastcheck.checks",
  // ".disables", ".closure_switches") and the "fastcheck.check_s"
  // wall-clock timer. Pass nullptr to detach.
  void set_sink(obs::Sink* sink);

 private:
  // One decision on the enabled `link`: asks the path counter and
  // counts the work.
  PathCounter::DisableCheck check(common::LinkId link, bool keep);

  topology::Topology* topo_;
  PathCounter* paths_;
  const CapacityConstraint* constraint_;

  // Observability (all inert when sink_ is null).
  obs::Sink* sink_ = nullptr;
  obs::Counter obs_checks_;
  obs::Counter obs_disables_;
  obs::Counter obs_closure_switches_;
  obs::Histogram obs_check_timer_;
};

}  // namespace corropt::core
