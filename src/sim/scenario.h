// sim::Scenario and run_scenario: the one "scenario → run" recipe
// (DESIGN.md §7).
//
// Every sweep in the repo — bench::ScenarioRunner's jobs, the fleet
// campaign's DCs, BranchRunner's base, branches and fresh references —
// runs a scenario through the functions below. A run builds a fresh
// topology from the scenario's factory, replays a corruption trace
// (synthesized from the scenario's own trace seed, or handed in by the
// caller), wires a run-local obs sink when asked to (a sink the caller
// already wired wins), runs the simulation fresh or from a checkpoint,
// captures the sink and times the whole thing. Nothing is shared
// between runs but read-only inputs, so a run's outputs are
// bit-identical whichever thread executes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "sim/checkpoint.h"
#include "sim/metrics.h"
#include "sim/mitigation_sim.h"
#include "sim/scenario_config.h"
#include "topology/topology.h"
#include "trace/trace.h"

namespace corropt::sim {

// Builds a fresh instance of a scenario's topology. Simulations mutate
// link state, so every run calls it once and instances are never
// shared; every call must produce structurally identical fabrics.
using TopologyFactory = std::function<topology::Topology()>;

// Evaluated between event dispatches of a run; the first true verdict
// freezes the run there (checkpoint_scenario).
using StopPredicate = std::function<bool(const MitigationSimulation&)>;

struct Scenario {
  // Label carried through to ScenarioRun::name.
  std::string name;
  TopologyFactory topology;
  // Corruption-trace synthesis; `trace.duration` should match
  // `config.duration`. Unused when the caller hands in the events.
  trace::TraceParams trace;
  std::uint64_t trace_seed = 0;
  // Simulation configuration, including the sim seed (`config.seed`).
  ScenarioConfig config;
  // Attach a run-local obs sink (metrics registry + decision journal)
  // and return its contents in ScenarioRun::obs. Ignored when
  // `config.sink` is already wired: the caller's sink wins.
  bool collect_obs = false;
};

// A run-local sink's contents at the end of the run.
struct ObsCapture {
  obs::MetricsSnapshot metrics;
  std::vector<obs::Event> journal;
  std::uint64_t journal_dropped = 0;
};

struct ScenarioRun {
  std::string name;
  SimulationMetrics metrics;
  std::size_t link_count = 0;
  std::size_t switch_count = 0;
  std::size_t trace_events = 0;
  // Wall clock of this run alone, topology build and trace synthesis
  // included. Non-deterministic, like the timers section of the obs
  // metrics.
  double wall_seconds = 0.0;
  // Set when the scenario collected obs into a run-local sink.
  std::optional<ObsCapture> obs;
};

// Synthesizes a corruption trace over `topo` from a fresh RNG seeded
// with `seed`.
[[nodiscard]] std::vector<trace::TraceEvent> make_trace(
    const topology::Topology& topo, const trace::TraceParams& params,
    std::uint64_t seed);

// The trace a fresh run of `scenario` replays, synthesized over a
// topology built for the purpose — for sweeps that share one trace.
[[nodiscard]] std::vector<trace::TraceEvent> scenario_trace(
    const Scenario& scenario);

// Runs `scenario` to its horizon. Without `events` the run synthesizes
// its own trace on its own topology (scenario_trace's events). With
// `events` it replays those; with `from` as well, it restores that
// checkpoint over them and runs only the rest of the horizon (the
// branch mode of DESIGN.md §14). `events` and `from` are read, never
// copied.
[[nodiscard]] ScenarioRun run_scenario(
    const Scenario& scenario,
    const std::vector<trace::TraceEvent>* events = nullptr,
    const Checkpoint* from = nullptr);

// Runs `scenario` over `events` until `stop` fires and returns the
// checkpoint at that event boundary. Empty when the run reached its
// horizon first — there is nothing left to branch from.
[[nodiscard]] Checkpoint checkpoint_scenario(
    const Scenario& scenario, const std::vector<trace::TraceEvent>& events,
    const StopPredicate& stop);

}  // namespace corropt::sim
