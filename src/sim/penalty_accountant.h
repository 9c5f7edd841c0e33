// PenaltyAccountant: ground-truth corruption-penalty integration.
//
// Owns the current penalty rate (the step function of Figure 14) and
// advances the clock: every jump of simulation time goes through
// integrate_until, which accrues `rate x span` into the run integral
// and the hourly bins before moving Clock::now. After each dispatched
// event the run loop refreshes the rate from ground truth and records a
// penalty_series point (journalled as kPenaltySample). Nothing here is
// checkpointed: the rate always equals the ground truth of the state it
// was refreshed from, so a restore refreshes it (DESIGN.md §14).
#pragma once

#include "sim/sim_context.h"

namespace corropt::sim {

class PenaltyAccountant {
 public:
  explicit PenaltyAccountant(SimContext& ctx) : ctx_(ctx) {}

  // Accrues the current rate up to `t` (exact, event-driven) and
  // advances the clock there. Monotonic; no-op when `t` is now.
  void integrate_until(SimTime t);

  // Recomputes the rate from ground truth: disabled links accrue
  // nothing, enabled corrupting links accrue I(f) from fault onset
  // regardless of whether the controller has noticed yet.
  void refresh();

  // Appends the current rate to the penalty series and journals it.
  void record_sample();

 private:
  [[nodiscard]] double true_penalty_rate();

  SimContext& ctx_;
  double penalty_rate_ = 0.0;
};

}  // namespace corropt::sim
