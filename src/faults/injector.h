// Applies faults to the network's physical state and tracks them.
//
// The injector is the single writer of fault-induced perturbations in
// NetworkState: injecting a fault adds its per-direction effects, clearing
// it (after a successful repair) removes them. Multiple concurrent faults
// on one direction compose: attenuations and TxPower deltas add, and
// corruption rates combine as independent drop processes.
#pragma once

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

  // Progresses time-dependent effects (decaying transmitters) to `now`.
  void advance(common::SimTime now);

  [[nodiscard]] const Fault* fault(FaultId id) const;
  // Ids of active faults affecting `link`, in injection order, read from
  // a per-link index. The span is invalidated by the next inject, clear
  // or restore: copy it before clearing the faults it names.
  [[nodiscard]] std::span<const FaultId> faults_on_link(LinkId link) const;
  [[nodiscard]] std::size_t active_fault_count() const {
    return active_.size();
  }
  // All active faults as `const Fault*`, in increasing fault-id
  // (== injection) order, viewed in place: no allocation, no sort. The
  // order is load-bearing: the penalty accountant folds these faults'
  // links into a floating-point sum and the detection pipeline builds
  // its suspect set from them, so an unspecified (hash-map) order would
  // make results depend on container history — exactly the hidden state
  // a checkpoint restore cannot reproduce.
  [[nodiscard]] auto active_faults() const {
    return active_ | std::views::transform(
                         [](const auto& item) { return &item.second; });
  }

  // Checkpointing (DESIGN.md §14): active faults (id order), the id
  // counter and the decay clock. `by_direction_` and `by_link_` are
  // rebuilt (id order == injection order, which erase preserves); the
  // physical state arrays are NetworkState's to serialize, so restore
  // does not rebuild them.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  // Recomputes the physical state of one direction from scratch by
  // folding in every active effect that targets it.
  void rebuild_direction(DirectionId dir);

  // Indexes an active fault under its directions and links.
  void index(const Fault& fault);

  telemetry::NetworkState* state_;
  // Ordered by id, so iteration is injection order.
  std::map<FaultId, Fault> active_;
  // Direction -> ids of active faults with an effect on it.
  std::unordered_map<DirectionId, std::vector<FaultId>> by_direction_;
  // Link -> ids of active faults listing it, each id once.
  std::unordered_map<LinkId, std::vector<FaultId>> by_link_;
  common::FaultId::underlying_type next_id_ = 0;
  common::SimTime now_ = 0;
};

}  // namespace corropt::faults
