// sim::Checkpoint: one mid-run simulation state, frozen (DESIGN.md §14).
//
// A checkpoint is the serialized state of a MitigationSimulation between
// two event dispatches, minus everything restore can recompute: the
// kernel (clock + pending event heap), the shared domain state (topology
// enabled mask, fault set, controller stats + corruption set, RNG
// stream), every component's private books, the in-flight
// SimulationMetrics, and — when a sink is attached — the decision
// journal and metrics registry contents. Restore derives the rest: the
// NetworkState from the fault set, the penalty rate from ground truth,
// the topology's enabled-link count from its mask (its state version
// only moves forward). Restoring it into a *same-configuration*
// simulation and running to the horizon produces bit-identical metrics,
// journal bytes and registry snapshots to a fresh end-to-end run (the
// branch equivalence contract tests/branch_runner_test.cc asserts).
//
// Restoring into a simulation with a *different* ScenarioConfig is the
// counterfactual "what-if" mode: same history, different future. The
// restore reconciles config-derived schedule entries (the horizon event,
// the poll chain, the trace cursor's fault event, the crew schedule) to
// the restoring scenario; everything else carries over verbatim.
//
// The payload is a same-build artifact: produced and consumed by the same
// binary (BranchRunner forks in-process), so there is no cross-version
// migration — a tag or version mismatch is a hard error.
#pragma once

#include <cstdint>
#include <string>

#include "common/time.h"

namespace corropt::sim {

struct Checkpoint {
  // The full serialized state (common::snap codec), sealed with an
  // 8-byte FNV-1a trailer that restore verifies before decoding.
  std::string bytes;

  // Metadata mirrored out of `bytes` for cheap inspection and branch
  // bookkeeping; restore trusts only `bytes`.
  common::SimTime time = 0;
  // Events dispatched before capture (the "event boundary" index K).
  std::uint64_t steps = 0;
  // Trace events already injected; branch traces must share this prefix.
  std::size_t trace_cursor = 0;

  [[nodiscard]] bool empty() const { return bytes.empty(); }
};

}  // namespace corropt::sim
