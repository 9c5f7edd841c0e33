// Technician behaviour models.
//
// Two models, matching the paper's evaluation:
//
//  * Outcome model (Section 7.1 simulations): each repair attempt
//    succeeds with a fixed probability (80% with CorrOpt's
//    recommendations, 50% with today's practice) and any second attempt
//    succeeds, so links return after two or four days.
//  * Action model (Section 7.2 deployment analysis): the technician
//    performs a concrete repair action — the ticket's recommendation
//    with probability p_follow (the paper observed technicians ignoring
//    recommendations 30% of the time), otherwise the legacy root-cause-
//    agnostic escalation sequence — and the attempt succeeds iff the
//    action actually fixes the underlying fault.
#pragma once

#include <optional>

#include "common/rng.h"
#include "faults/repair_action.h"
#include "faults/root_cause.h"

namespace corropt::repair {

// The paper's abstract repair-outcome model.
struct OutcomeModel {
  // Probability the first attempt eliminates corruption.
  double first_attempt_success = 0.8;

  // True when the `attempt`-th (1-based) repair attempt succeeds. Every
  // attempt after the first succeeds, matching the paper's two-or-four
  // day model.
  [[nodiscard]] bool attempt_succeeds(int attempt, common::Rng& rng) const {
    return attempt >= 2 || rng.bernoulli(first_attempt_success);
  }
};

inline constexpr double kLegacyFirstAttemptSuccess = 0.5;
inline constexpr double kCorrOptFirstAttemptSuccess = 0.8;

// The concrete-action technician.
class Technician {
 public:
  // `p_follow`: probability of following a present recommendation.
  explicit Technician(double p_follow = 1.0) : p_follow_(p_follow) {}

  // On-site visual inspection (Section 5.2): before acting, technicians
  // look for tight bends, damage, and loosely seated equipment. Visually
  // apparent root causes are sometimes spotted and fixed directly,
  // regardless of any recommendation: a bent or damaged fiber 60% of the
  // time, a loosely seated transceiver 50%. Returns the corrective action
  // when the ground-truth cause was spotted, nullopt otherwise.
  [[nodiscard]] std::optional<faults::RepairAction> inspect(
      faults::RootCause true_cause, common::Rng& rng) const;

  // The legacy escalation sequence: visually inspect and clean first,
  // then reseat, then replace the transceiver, then the cable, then
  // escalate to the far-end transceiver and shared components.
  [[nodiscard]] static faults::RepairAction legacy_action(int attempt);

  // Chooses the action for the given attempt. A missing recommendation
  // always falls back to the legacy sequence.
  [[nodiscard]] faults::RepairAction choose_action(
      const std::optional<faults::RepairAction>& recommendation, int attempt,
      common::Rng& rng) const;

 private:
  double p_follow_;
};

}  // namespace corropt::repair
