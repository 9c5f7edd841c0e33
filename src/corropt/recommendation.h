// CorrOpt's repair recommendation engine (Section 5.2, Algorithm 1).
//
// Given a corrupting link, the engine proposes the single repair action
// most likely to eliminate the corruption, derived from the root-cause
// symptom analysis of Section 4: co-located corruption implicates a
// shared component; bidirectional corruption implicates the cable; low
// far-end TxPower implicates a decaying transmitter; low RxPower on both
// ends implicates the fiber; low RxPower on one end implicates a dirty
// connector; healthy optics implicate the transceiver, reseated first and
// replaced on a repeat offence.
#pragma once

#include "common/ids.h"
#include "faults/repair_action.h"
#include "telemetry/network_state.h"

namespace corropt::core {

using common::DirectionId;
using common::LinkId;

struct Recommendation {
  faults::RepairAction action = faults::RepairAction::kCleanFiber;
  // Human-readable explanation for the ticket body: a static message,
  // so a recommendation allocates nothing.
  const char* rationale = "";
};

class RecommendationEngine {
 public:
  // A neighbour or the opposite direction counts as corrupting from
  // common::kLossyThreshold on.
  explicit RecommendationEngine(const telemetry::NetworkState& state);

  // Algorithm 1. `corrupting_dir` is the direction on which corruption is
  // observed (the receiver side drops the frames). `recently_reseated`
  // reflects the link's repair history: a transceiver that was already
  // reseated without eliminating corruption gets replaced instead.
  [[nodiscard]] Recommendation recommend(DirectionId corrupting_dir,
                                         bool recently_reseated) const;

  // Link-level convenience: recommends for the worse corrupting
  // direction.
  [[nodiscard]] Recommendation recommend_link(LinkId link,
                                              bool recently_reseated) const;

 private:
  // Any other link on either endpoint switch corrupting?
  [[nodiscard]] bool neighbors_corrupting(LinkId link) const;

  const telemetry::NetworkState* state_;
};

}  // namespace corropt::core
