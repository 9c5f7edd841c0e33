// Reference readings of a fault that the library itself never needs.
#pragma once

#include <optional>

#include "faults/fault.h"
#include "faults/fault_factory.h"

namespace corropt::testing {

// The highest corruption rate the fault induces on any direction.
inline double peak_corruption_rate(const faults::Fault& fault) {
  double peak = 0.0;
  for (const faults::DirectionEffect& effect : fault.effects) {
    if (effect.corruption_rate > peak) peak = effect.corruption_rate;
  }
  return peak;
}

// One fault of each kBadOrLooseTransceiver variant on `link`: a loose
// transceiver (reseating fixes it) and a bad one (only replacement
// does). The factory picks the variant itself, so this draws until both
// have appeared; a variant still missing after `max_draws` draws stays
// empty.
struct TransceiverVariants {
  std::optional<faults::Fault> loose;
  std::optional<faults::Fault> bad;
};
inline TransceiverVariants draw_transceiver_variants(
    faults::FaultFactory& factory, common::LinkId link, common::SimTime onset,
    int max_draws = 64) {
  TransceiverVariants variants;
  for (int draw = 0; draw < max_draws && !(variants.loose && variants.bad);
       ++draw) {
    faults::Fault fault = factory.make_fault(
        link, faults::RootCause::kBadOrLooseTransceiver, onset);
    auto& slot = fault.fixed_by(faults::RepairAction::kReseatTransceiver)
                     ? variants.loose
                     : variants.bad;
    if (!slot) slot = std::move(fault);
  }
  return variants;
}

}  // namespace corropt::testing
