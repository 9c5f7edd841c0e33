// The CorrOpt controller: the workflow of Figure 13.
//
// Switches report packet corruption to the controller; the controller
// decides (fast checker) whether the corrupting link can be safely
// disabled, and if so disables it and issues a maintenance ticket. When a
// repaired link is activated, the controller runs the optimizer to disable
// any remaining corrupting links that newly-freed capacity permits. The
// controller is also configurable to emulate the state-of-the-art
// switch-local checker and the fast-checker-only ablation, which the
// paper compares against (Figures 14-18).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "corropt/capacity.h"
#include "corropt/corruption_set.h"
#include "corropt/fast_checker.h"
#include "corropt/optimizer.h"
#include "corropt/penalty.h"
#include "corropt/switch_local.h"
#include "obs/sink.h"
#include "topology/topology.h"

namespace corropt::core {

enum class CheckerMode {
  // Production state of the art: per-switch uplink budget with
  // sc = c^(1/r).
  kSwitchLocal,
  // CorrOpt's fast checker run on both arrival and activation events.
  kFastCheckerOnly,
  // Full CorrOpt: fast checker on arrival, optimizer on activation.
  kCorrOpt,
};

struct ControllerConfig {
  CheckerMode mode = CheckerMode::kCorrOpt;
  // Uniform per-ToR capacity constraint; per-ToR overrides can be set on
  // the constraint after construction via mutable_constraint().
  double capacity_fraction = 0.75;
  OptimizerConfig optimizer;

  // Section 8 extension: account for the collateral impact of repair.
  // Repairing one leg of a breakout bundle takes the healthy sibling
  // links out of service during maintenance; with this set, the fast
  // checker only disables a link if capacity holds even with its whole
  // breakout bundle off. (The switch-local baseline has no equivalent.)
  bool account_collateral_repair = false;

  // Incremental control loop (DESIGN.md §12): keep the optimizer's and
  // fast checker's derived state (path counts, closures, segment
  // solutions) alive across events, invalidating only what each change
  // touches. Decisions — disable sets, enabled mask, penalties, tickets,
  // journal decision events — are identical to the default cold path;
  // only search-effort diagnostics (kOptimizerRun.detail1, the
  // optimizer.subsets_evaluated / cache-skip counters, and
  // fastcheck.cache_refreshes / delta_updates) may differ.
  bool incremental = false;
  // Debug mode: after every optimizer run, replay the event cold on a
  // topology copy and throw std::logic_error if the disable set, the
  // penalties, or the resulting enabled mask diverge. Expensive; for
  // tests and the CI bench smoke only.
  bool verify_incremental = false;
};

class Controller {
 public:
  // Invoked for every link the controller disables; the receiver is
  // expected to open a maintenance ticket.
  using TicketCallback = std::function<void(common::LinkId)>;

  Controller(topology::Topology& topo, ControllerConfig config,
             PenaltyFunction penalty = PenaltyFunction::linear());

  void set_ticket_callback(TicketCallback callback) {
    ticket_callback_ = std::move(callback);
  }

  [[nodiscard]] CapacityConstraint& mutable_constraint() {
    return constraint_;
  }

  // A switch reported corruption on `link` at the given link-level loss
  // rate. Returns true when the controller disabled the link.
  bool on_corruption_detected(common::LinkId link, double loss_rate);

  // A repair eliminated corruption on `link`: the controller re-enables
  // it and re-examines the remaining corrupting links (optimizer in
  // CorrOpt mode; re-running the respective checker otherwise).
  void on_link_repaired(common::LinkId link);

  // Monitoring downgraded its estimate: the link is no longer corrupting
  // (e.g. rate fell below threshold) without a repair event.
  void on_corruption_cleared(common::LinkId link);

  [[nodiscard]] const CorruptionSet& corruption() const {
    return corruption_;
  }
  // Penalty per unit time of corrupting links still carrying traffic.
  [[nodiscard]] double active_penalty() const {
    return corruption_.total_active_penalty(*topo_, penalty_);
  }
  [[nodiscard]] const topology::Topology& topo() const { return *topo_; }
  [[nodiscard]] CheckerMode mode() const { return config_.mode; }

  // Diagnostics accumulated since construction.
  struct Stats {
    std::size_t corruption_reports = 0;
    std::size_t disabled_on_arrival = 0;
    std::size_t disabled_on_activation = 0;
    std::size_t tickets_issued = 0;
    std::size_t optimizer_runs = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  // Read access to the optimizer (e.g. incremental_stats() in tests).
  [[nodiscard]] const Optimizer& optimizer() const { return optimizer_; }

  // Attaches observability (DESIGN.md §8): decision counters and journal
  // events for every verdict, forwarded to the fast checker and
  // optimizer as well. The sink is write-only — attaching it never
  // changes a decision. Pass nullptr to detach.
  void set_sink(obs::Sink* sink);

  // Checkpointing (DESIGN.md §14): stats, the corruption set and the
  // fast checker's path-count cache. The optimizer's derived state
  // (baseline counts, incremental caches) is not serialized — it is
  // version-keyed against the topology and re-derives deterministically,
  // producing identical decisions either way. Config, constraint and
  // callback belong to the restoring context and are untouched.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  // Re-examines all active corrupting links with the mode's arrival
  // checker (switch-local and fast-checker-only modes).
  void recheck_all_active();
  void issue_ticket(common::LinkId link);
  bool arrival_disable(common::LinkId link);
  // Reports an enabled-state change to the incremental caches (no-op
  // unless config_.incremental). Must be called after every effective
  // set_enabled on topo_ outside the optimizer's own run.
  void note_state_changed(std::span<const common::LinkId> links);
  // Journals a link-scoped event with the link's lower switch filled in.
  void emit_link(obs::EventKind kind, obs::EventReason reason,
                 common::LinkId link, double value);

  topology::Topology* topo_;
  ControllerConfig config_;
  PenaltyFunction penalty_;
  CapacityConstraint constraint_;
  FastChecker fast_checker_;
  SwitchLocalChecker switch_local_;
  Optimizer optimizer_;
  CorruptionSet corruption_;
  TicketCallback ticket_callback_;
  Stats stats_;

  // Observability (all inert when sink_ is null).
  obs::Sink* sink_ = nullptr;
  obs::Counter obs_reports_;
  obs::Counter obs_disabled_arrival_;
  obs::Counter obs_disabled_activation_;
  obs::Counter obs_refused_capacity_;
  obs::Counter obs_tickets_;
  obs::Counter obs_optimizer_runs_;
};

}  // namespace corropt::core
