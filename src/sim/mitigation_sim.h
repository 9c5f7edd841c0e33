// Event-driven corruption-mitigation simulation (Section 7.1).
//
// Replays a corruption fault trace against a topology managed by a
// Controller (switch-local, fast-checker-only, or full CorrOpt), runs
// disabled links through the FIFO repair pipeline, and accounts the total
// corruption penalty over time plus the capacity each ToR retains. This
// is the harness behind Figures 14-19 and the combined-impact numbers of
// Section 7.3.
//
// Since the kernel refactor (DESIGN.md §10) this class is a thin
// composition layer: it owns the shared domain state (SimContext), the
// discrete-event kernel (EventQueue + Clock), and the components that
// register handlers on it — DetectionPipeline, RepairPipeline,
// MaintenanceModel, PenaltyAccountant, CapacitySampler. The public
// ScenarioConfig / SimulationMetrics / run() surface is unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "corropt/controller.h"
#include "faults/injector.h"
#include "sim/capacity_sampler.h"
#include "sim/checkpoint.h"
#include "sim/detection_pipeline.h"
#include "sim/event_queue.h"
#include "sim/maintenance_model.h"
#include "sim/metrics.h"
#include "sim/penalty_accountant.h"
#include "sim/repair_pipeline.h"
#include "sim/scenario_config.h"
#include "sim/sim_context.h"
#include "telemetry/network_state.h"
#include "topology/topology.h"
#include "trace/trace.h"

namespace corropt::sim {

class MitigationSimulation {
 public:
  // The simulation owns all mutable state derived from `topo`; the
  // topology itself is mutated (links disabled/enabled) during the run.
  MitigationSimulation(topology::Topology& topo, ScenarioConfig config);

  // Replays `events` (time-sorted fault onsets) until config.duration.
  // Equivalent to begin_run + step-to-completion + finish_run.
  SimulationMetrics run(const std::vector<trace::TraceEvent>& events);

  // Stepwise surface (checkpoint/branch execution; DESIGN.md §14).
  // `events` must outlive the run. Seeds the kernel and records the
  // t = 0 baseline sample, exactly as run() does.
  void begin_run(const std::vector<trace::TraceEvent>& events);
  // Pops and dispatches one event. Returns false when the popped event
  // was the horizon (kEnd): the run is finished and only finish_run()
  // may follow.
  bool step();
  // Dispatched (non-horizon) events so far — the event-boundary index a
  // snapshot taken now would carry.
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] bool finished() const { return finished_; }
  // Current simulation time (for time-based stop predicates).
  [[nodiscard]] SimTime now() const { return clock_.now(); }
  // Finalizes and returns the run's metrics (publishes to the sink's
  // registry like run() does). The simulation may not be reused after.
  SimulationMetrics finish_run();

  // Captures the complete mid-run state. Only valid between begin_run
  // (or restore_run) and finish_run.
  [[nodiscard]] Checkpoint snapshot() const;

  // Restores mid-run state from `ckpt` and binds the fault feed to
  // `events`, which must share the checkpoint's already-injected prefix
  // (ckpt.trace_cursor events) but may diverge after it. Config-derived
  // schedule entries (horizon, poll chain, next trace fault, crew
  // schedule) are reconciled to *this* simulation's ScenarioConfig, so
  // the restoring scenario may differ from the one that produced the
  // checkpoint (the counterfactual mode). Continue with step().
  void restore_run(const std::vector<trace::TraceEvent>& events,
                   const Checkpoint& ckpt);

 private:
  // Tests compare the network state a restore rebuilt with a fresh
  // run's through this probe; nothing in the library reads it.
  friend struct NetworkStateProbe;

  // The checkpoint's field list, run by snapshot() and restore_run().
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  // kFault handler: injects the next trace event and hands the lossy
  // links to the detection pipeline, then schedules the following fault.
  void handle_fault(const Event& event);

  topology::Topology* topo_;
  ScenarioConfig config_;
  common::Rng rng_;
  telemetry::NetworkState state_;
  faults::FaultInjector injector_;
  core::Controller controller_;

  // Kernel. The context references everything above plus the kernel, so
  // declaration order matters: domain state, kernel, context, components.
  Clock clock_;
  EventQueue queue_;
  SimContext ctx_;

  // Components (handler registration happens in their constructors).
  DetectionPipeline detection_;
  MaintenanceModel maintenance_;
  RepairPipeline repair_;
  PenaltyAccountant accountant_;
  CapacitySampler sampler_;

  // Fault-trace feed state for the in-flight run().
  const std::vector<trace::TraceEvent>* events_ = nullptr;
  std::size_t next_event_ = 0;

  // In-flight run metrics (ctx_.metrics points here during a run).
  SimulationMetrics metrics_;
  std::uint64_t steps_ = 0;
  bool finished_ = false;
};

}  // namespace corropt::sim
