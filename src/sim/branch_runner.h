// sim::BranchRunner: counterfactual what-if sweeps over a shared prefix.
//
// The pattern behind bench_whatif (DESIGN.md §14): run a base scenario
// once to an event boundary, freeze it as a sim::Checkpoint, then fork N
// branches that each restore the checkpoint into their own simulation
// (own topology instance, own sink) and run the remaining horizon with a
// divergent input — a different fault-trace suffix, a different crew
// size, a different detection backend, a disabled optimizer budget. The
// prefix is computed once instead of N times; every branch whose
// configuration matches the base is bit-identical to a fresh end-to-end
// run (metrics scalars, journal bytes, registry snapshots — the golden
// equivalence suite's digests), for any thread count.
//
// Threading: branches are independent simulations; the runner fans them
// out over a caller-provided common::ThreadPool. Base, branches and
// fresh references are all sim::run_scenario / checkpoint_scenario runs
// (sim/scenario.h), so nothing is shared between branches but the
// immutable checkpoint bytes and each branch's trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sim/checkpoint.h"
#include "sim/scenario.h"
#include "trace/trace.h"

namespace corropt::sim {

struct BranchSpec {
  // Label carried through to the result (scenario name in benches).
  std::string name;
  // The branch's full scenario. For bit-identical branching this must
  // equal the base config (including the sink's wiring discipline); a
  // differing config is the counterfactual mode — same history,
  // different future.
  ScenarioConfig config;
  // The branch's full fault trace. Must share the checkpoint's
  // already-injected prefix (Checkpoint::trace_cursor events); the
  // suffix may diverge freely.
  const std::vector<trace::TraceEvent>* events = nullptr;
};

// A branch's run, named after its spec.
using BranchResult = ScenarioRun;

class BranchRunner {
 public:
  explicit BranchRunner(TopologyFactory factory)
      : factory_(std::move(factory)) {}

  // Runs `config` over `events` until `stop` fires (or the horizon, if
  // it never does) and returns the checkpoint at that boundary. The
  // returned checkpoint is empty() when the run finished first — there
  // is no boundary left to branch from.
  [[nodiscard]] Checkpoint checkpoint_base(
      const ScenarioConfig& config,
      const std::vector<trace::TraceEvent>& events,
      const StopPredicate& stop) const;

  // checkpoint_base at the boundary after `k` dispatched events — the
  // journal time-travel hook: restore the checkpoint to inspect the
  // decision journal exactly as it stood at event K.
  [[nodiscard]] Checkpoint checkpoint_at_step(
      const ScenarioConfig& config,
      const std::vector<trace::TraceEvent>& events, std::uint64_t k) const;

  // Forks every branch from `base` and runs each to its horizon across
  // `pool`. Results are returned in branch order regardless of
  // completion order (caller-owned slots, DESIGN.md §7).
  [[nodiscard]] std::vector<BranchResult> run(
      const Checkpoint& base, const std::vector<BranchSpec>& branches,
      common::ThreadPool& pool) const;

  // Reference implementation for the equivalence contract: runs one
  // branch's scenario fresh, end to end, with no checkpoint involved.
  [[nodiscard]] SimulationMetrics run_fresh(
      const ScenarioConfig& config,
      const std::vector<trace::TraceEvent>& events) const;

 private:
  // The scenario every method runs: this runner's topology, `config`.
  [[nodiscard]] Scenario scenario(const ScenarioConfig& config,
                                  std::string name = {}) const;

  TopologyFactory factory_;
};

}  // namespace corropt::sim
