// A fault instance and its physical effects.
//
// A fault strikes one link (or, for shared-component failures, a bundle of
// co-located links) and perturbs per-direction optical power and
// corruption rates in the pattern characteristic of its root cause
// (Table 2). A fault also knows which repair actions eliminate it, which
// is the ground truth the repair simulator scores technicians against.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "faults/repair_action.h"
#include "faults/root_cause.h"

namespace corropt::faults {

using common::DirectionId;
using common::FaultId;
using common::LinkId;
using common::SimTime;

struct DirectionEffect {
  DirectionId direction;
  // Extra path loss on this direction (connector dirt, fiber bend).
  double extra_attenuation_db = 0.0;
  // Change to the transmitter's output power feeding this direction
  // (negative for decaying lasers).
  double tx_power_delta_db = 0.0;
  // Additional TxPower decay per simulated day (decaying transmitters
  // degrade gradually, Section 4 root cause 3).
  double tx_decay_db_per_day = 0.0;
  // Probability a packet on this direction is corrupted.
  double corruption_rate = 0.0;
};

struct Fault {
  FaultId id;  // Assigned by the injector.
  RootCause cause = RootCause::kConnectorContamination;
  // Affected links; more than one only for shared-component failures.
  std::vector<LinkId> links;
  std::vector<DirectionEffect> effects;
  // Repair actions that eliminate this fault; anything else fails.
  std::vector<RepairAction> fixing_actions;
  SimTime onset = 0;

  [[nodiscard]] bool fixed_by(RepairAction action) const {
    for (RepairAction fix : fixing_actions) {
      if (fix == action) return true;
    }
    return false;
  }
};

}  // namespace corropt::faults
