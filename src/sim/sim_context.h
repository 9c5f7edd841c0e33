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
//     (suspect sets, affected sets, penalty accounting). Every user
//     restores the bits it set, so the vector is all-zero between uses.
//   - `live_paths` holds the fabric's up-path counts, shared by the
//     capacity sampler and the maintenance model; read it through
//     up_paths(), which folds in whatever links changed since.
//   - Domain state that only one component needs (the ticket queue, the
//     SNMP monitor, the collateral bookkeeping, ...) lives inside that
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
  // Up-path counts of the live fabric, read through up_paths(). Derived
  // from the enabled mask, so never checkpointed.
  core::PathCounter::LiveCounts live_paths;

  [[nodiscard]] obs::Sink* sink() const { return config.sink; }

  // Per-switch up-path counts for the current link state, folded forward
  // from the links that flipped since the last call.
  const std::vector<std::uint64_t>& up_paths() {
    return paths.sync_live_counts(live_paths);
  }

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
