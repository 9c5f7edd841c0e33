// Scenario configuration for the corruption-mitigation simulation
// (Section 7.1 and the Section 8 extensions). Split out of
// mitigation_sim.h so individual components can see the config without
// depending on the composition layer; the public surface is unchanged —
// mitigation_sim.h re-exports everything here.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "corropt/controller.h"
#include "detect/config.h"
#include "obs/sink.h"
#include "repair/technician.h"
#include "repair/ticket.h"

namespace corropt::sim {

using common::SimDuration;
using common::SimTime;

enum class RepairModelKind {
  // The paper's simulation model: attempt 1 succeeds with probability p,
  // attempt 2 always succeeds.
  kOutcome,
  // The deployment model: a technician performs a concrete action chosen
  // from the ticket recommendation / visual inspection / legacy sequence,
  // and success depends on whether the action fixes the injected fault.
  kAction,
};

// How the controller learns that a link corrupts.
enum class DetectionMode {
  // The controller is notified the instant a fault manifests, with the
  // exact loss rate — the modeling shortcut the paper's simulations use
  // (detection latency is minutes against repair times of days).
  kOracle,
  // Closed loop: the detection backend (by default the SNMP threshold
  // backend: 15-minute counter polls of suspect links, windowing and
  // hysteresis) raises/clears alerts; the controller sees estimated
  // rates after a detection delay.
  kPolled,
};

// How a completed repair is verified (Section 8, "Removing traffic
// instead of disabling links").
enum class RepairVerification {
  // Today's practice: the link is enabled after the repair attempt and
  // real traffic flows. A failed repair corrupts live traffic until the
  // monitoring pipeline re-detects it (Figure 12's enable/disable
  // cycles).
  kEnableAndObserve,
  // The proposed extension: the corrupting link is costed out of routing
  // rather than disabled, so test traffic can confirm the repair without
  // exposing applications; failed repairs are re-ticketed immediately.
  kTestTraffic,
};

struct ScenarioConfig {
  core::CheckerMode mode = core::CheckerMode::kCorrOpt;
  double capacity_fraction = 0.75;
  core::OptimizerConfig optimizer;

  RepairModelKind repair_model = RepairModelKind::kOutcome;
  repair::OutcomeModel outcome;
  // Action-model parameters.
  double technician_follow_probability = 1.0;
  bool issue_recommendations = true;

  // Repair verification policy; under kEnableAndObserve with oracle
  // detection a failed repair corrupts live traffic for
  // RepairPipeline::kRedetectionDelay.
  RepairVerification verification = RepairVerification::kTestTraffic;

  DetectionMode detection = DetectionMode::kOracle;
  // Which detection/localization backend gathers the evidence within
  // each poll cycle (DESIGN.md §13). The default threshold backend is
  // byte-identical to the pre-seam pipeline; 007-style voting and the
  // count-min sketch detector draw only from counter-keyed streams.
  detect::BackendKind backend = detect::BackendKind::kThreshold;

  // Section 8 extension: model the collateral impact of repair. When a
  // breakout-bundle link is repaired, its healthy siblings go down for
  // MaintenanceModel::kWindow, ending at the ticket's completion.
  // Combine with ControllerConfig::account_collateral_repair (exposed
  // below) to have the fast checker budget for it.
  bool model_collateral_maintenance = false;
  bool account_collateral_repair = false;

  repair::TicketQueueParams queue;

  std::uint64_t seed = 1;
  // Interval at which ToR path fractions are sampled for the capacity
  // figures; the penalty series is exact (event-driven) regardless.
  SimDuration capacity_sample_interval = common::kHour;
  SimDuration duration = 90 * common::kDay;

  // Per-ToR capacity overrides (hot racks with stricter requirements);
  // applied on top of capacity_fraction. Only the CorrOpt/fast-checker
  // modes can honour per-ToR values — the switch-local baseline has a
  // single global sc, which is exactly its Section 5.1 limitation.
  std::vector<std::pair<common::SwitchId, double>> tor_overrides;

  // Optional observability sink (DESIGN.md §8), shared with the
  // controller/optimizer/telemetry stack. The event loop advances
  // `sink->now` as simulation time progresses, journals every decision,
  // and folds SimulationMetrics into the registry at end of run. The
  // sink is write-only: attaching one changes no simulation outcome.
  // Not owned; must outlive the simulation.
  obs::Sink* sink = nullptr;
};

}  // namespace corropt::sim
