// Reference readings of a fault that the library itself never needs.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "faults/fault.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"

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

// The injector's affected-link list, copied.
inline std::vector<common::LinkId> affected_links(
    const faults::FaultInjector& injector) {
  const auto links = injector.affected_links();
  return {links.begin(), links.end()};
}

// The walk the penalty fold and the poll's suspect set ran before the
// injector kept its affected-link list: every active fault's links in
// fault-id order, each link once, deduplicated with per-link marks.
// `ids_issued` bounds the ids probed (the injects made so far).
inline std::vector<common::LinkId> dedupe_walk(
    const faults::FaultInjector& injector, std::size_t ids_issued,
    std::size_t link_count) {
  std::vector<char> mark(link_count, 0);
  std::vector<common::LinkId> walk;
  for (std::size_t i = 0; i < ids_issued; ++i) {
    const faults::Fault* fault = injector.fault(
        common::FaultId(static_cast<common::FaultId::underlying_type>(i)));
    if (fault == nullptr) continue;
    for (common::LinkId link : fault->links) {
      char& seen = mark[link.index()];
      if (seen != 0) continue;
      seen = 1;
      walk.push_back(link);
    }
  }
  return walk;
}

}  // namespace corropt::testing
