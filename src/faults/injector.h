// Applies faults to the network's physical state and tracks them.
//
// The injector is the single writer of fault-induced perturbations in
// NetworkState: injecting a fault adds its per-direction effects, clearing
// it (after a successful repair) removes them. Multiple concurrent faults
// on one direction compose: attenuations and TxPower deltas add, and
// corruption rates combine as independent drop processes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ranges>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/snapshot.h"
#include "common/time.h"
#include "faults/fault.h"
#include "telemetry/network_state.h"

namespace corropt::faults {

class FaultInjector {
 public:
  explicit FaultInjector(telemetry::NetworkState& state);

  // Applies the fault's effects and returns its assigned id.
  FaultId inject(Fault fault);

  // Removes the fault and its effects. No-op for unknown/cleared ids.
  void clear(FaultId id);

  // Attempts a repair action against the fault: if the action is in the
  // fault's fixing set, the fault is cleared and true is returned;
  // otherwise the fault persists and false is returned.
  bool try_repair(FaultId id, RepairAction action);

  // Progresses time-dependent effects (decaying transmitters) to `now`,
  // which may not lie before the previous advance.
  void advance(common::SimTime now);
  // The decay clock: the time of the last advance.
  [[nodiscard]] common::SimTime now() const { return now_; }

  [[nodiscard]] const Fault* fault(FaultId id) const;
  // Ids of active faults affecting `link`, in injection order, read from
  // a per-link index. The span is invalidated by the next inject, clear
  // or restore: copy it before clearing the faults it names.
  [[nodiscard]] std::span<const FaultId> faults_on_link(LinkId link) const;
  // The distinct links of the active faults, each once, in the order a
  // deduplicating walk over the faults in id (== injection) order meets
  // them: by the first fault listing the link, then the link's first
  // position in that fault. The order is load-bearing: the penalty
  // accountant folds these links into a floating-point sum and the
  // detection pipeline starts its suspect set from them, so an order
  // that depended on container history would be hidden state a
  // checkpoint restore cannot reproduce. Viewed in place; invalidated
  // by the next inject, clear or restore.
  [[nodiscard]] auto affected_links() const {
    return affected_ | std::views::transform(&AffectedLink::link);
  }

  // Checkpointing (DESIGN.md §14): active faults (id order), the id
  // counter and the decay clock. `by_direction_`, `by_link_`,
  // `affected_` and `decaying_` are rebuilt (id order == injection
  // order, which erase preserves), and so is every direction of the
  // NetworkState, which only this injector writes: restore resets the
  // unfaulted directions to nominal and folds the faulted ones afresh.
  // A restored effect must be finite, its rate in [0, 1], and every
  // rebuilt Tx power and attenuation finite.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  // Recomputes the physical state of one direction from scratch by
  // folding in every active effect that targets it.
  void rebuild_direction(DirectionId dir);

  // Indexes an active fault under its directions and links, and in the
  // affected-link and decaying lists.
  void index(const Fault& fault);

  // One entry of the affected-link list, keyed by the fault that lists
  // the link first and the link's first position in that fault.
  struct AffectedLink {
    FaultId owner;
    std::uint32_t position;
    LinkId link;
  };

  telemetry::NetworkState* state_;
  // Ordered by id, so iteration is injection order.
  std::map<FaultId, Fault> active_;
  // Direction -> ids of active faults with an effect on it.
  std::unordered_map<DirectionId, std::vector<FaultId>> by_direction_;
  // Link -> ids of active faults listing it, each id once.
  std::unordered_map<LinkId, std::vector<FaultId>> by_link_;
  // Every key of by_link_ once, sorted by (owner, position): the order
  // affected_links() promises. The owner is by_link_[link].front().
  std::vector<AffectedLink> affected_;
  // Ids of active faults with a decaying transmitter, in id order: the
  // faults advance() rebuilds.
  std::vector<FaultId> decaying_;
  common::FaultId::underlying_type next_id_ = 0;
  common::SimTime now_ = 0;
};

}  // namespace corropt::faults
