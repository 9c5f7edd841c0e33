// SimContext: the shared state a simulation's components operate on.
//
// Ownership rules (DESIGN.md §10):
//   - MitigationSimulation owns every referenced object (topology is
//     borrowed from the caller, like before) plus the kernel (queue and
//     clock); the context only lends references. Components hold a
//     `SimContext&` and must not outlive the simulation.
//   - `metrics` points at the SimulationMetrics of the *current* run();
//     it is set before the first event dispatches and components may
//     only touch it from event handlers.
//   - `link_mark` is a shared per-link scratch pad for the dedup scans
//     (the poll's fault-free suspects, the repair's affected sets).
//     Every user restores the bits it set, so the vector is all-zero
//     between uses.
//   - `paths` is the controller's path counter, borrowed: the capacity
//     sampler and the maintenance model read the same live counts the
//     fast checker and the optimizer decide on (never checkpointed).
//   - Domain state that only one component needs (the ticket queue, the
//     detection backend, the collateral bookkeeping, ...) lives inside that
//     component, not here.
#pragma once

#include <vector>

#include "common/rng.h"
#include "corropt/controller.h"
#include "corropt/path_counter.h"
#include "faults/injector.h"
#include "obs/sink.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/scenario_config.h"
#include "telemetry/network_state.h"
#include "topology/topology.h"

namespace corropt::sim {

struct SimContext {
  topology::Topology& topo;
  const ScenarioConfig& config;
  common::Rng& rng;
  telemetry::NetworkState& state;
  faults::FaultInjector& injector;
  core::Controller& controller;
  core::PathCounter& paths;
  Clock& clock;
  EventQueue& queue;

  // Output of the in-flight run(); null outside a run.
  SimulationMetrics* metrics = nullptr;
  // Reusable per-link dedup flags; all-zero between uses (see above).
  std::vector<char> link_mark;

  // Journals an event (no-op without a sink); link-valid events get the
  // link's lower switch filled in.
  void emit(obs::Event event) {
    obs::Sink* out = config.sink;
    if (out == nullptr) return;
    if (event.link.valid() && !event.sw.valid()) {
      event.sw = topo.link_at(event.link).lower;
    }
    out->emit(event);
  }
};

}  // namespace corropt::sim
