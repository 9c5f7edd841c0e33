#include "repair/technician.h"

#include <array>

namespace corropt::repair {

namespace {

// Chance of spotting a bent/damaged fiber on sight.
constexpr double kSpotDamage = 0.6;
// Chance of noticing a loosely seated transceiver.
constexpr double kSpotLoose = 0.5;

}  // namespace

faults::RepairAction Technician::legacy_action(int attempt) {
  static constexpr std::array<faults::RepairAction, 6> kSequence = {
      faults::RepairAction::kCleanFiber,
      faults::RepairAction::kReseatTransceiver,
      faults::RepairAction::kReplaceTransceiver,
      faults::RepairAction::kReplaceFiber,
      faults::RepairAction::kReplaceRemoteTransceiver,
      faults::RepairAction::kReplaceSharedComponent,
  };
  const int index = attempt < 1 ? 0 : (attempt - 1) % kSequence.size();
  return kSequence[static_cast<std::size_t>(index)];
}

std::optional<faults::RepairAction> Technician::inspect(
    faults::RootCause true_cause, common::Rng& rng) const {
  switch (true_cause) {
    case faults::RootCause::kDamagedFiber:
      if (rng.bernoulli(kSpotDamage)) {
        return faults::RepairAction::kReplaceFiber;
      }
      break;
    case faults::RootCause::kBadOrLooseTransceiver:
      if (rng.bernoulli(kSpotLoose)) {
        return faults::RepairAction::kReseatTransceiver;
      }
      break;
    default:
      // Contamination, decaying lasers and shared-component faults are
      // invisible to the naked eye.
      break;
  }
  return std::nullopt;
}

faults::RepairAction Technician::choose_action(
    const std::optional<faults::RepairAction>& recommendation, int attempt,
    common::Rng& rng) const {
  if (recommendation.has_value() && rng.bernoulli(p_follow_)) {
    return *recommendation;
  }
  return legacy_action(attempt);
}

}  // namespace corropt::repair
