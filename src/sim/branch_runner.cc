#include "sim/branch_runner.h"

#include <utility>

namespace corropt::sim {

Scenario BranchRunner::scenario(const ScenarioConfig& config,
                                std::string name) const {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.topology = factory_;
  scenario.config = config;
  return scenario;
}

Checkpoint BranchRunner::checkpoint_base(
    const ScenarioConfig& config, const std::vector<trace::TraceEvent>& events,
    const StopPredicate& stop) const {
  return checkpoint_scenario(scenario(config), events, stop);
}

Checkpoint BranchRunner::checkpoint_at_step(
    const ScenarioConfig& config, const std::vector<trace::TraceEvent>& events,
    std::uint64_t k) const {
  return checkpoint_base(config, events,
                         [k](const MitigationSimulation& sim) {
                           return sim.steps() >= k;
                         });
}

std::vector<BranchResult> BranchRunner::run(
    const Checkpoint& base, const std::vector<BranchSpec>& branches,
    common::ThreadPool& pool) const {
  std::vector<BranchResult> results(branches.size());
  common::parallel_for_each(pool, branches.size(), [&](std::size_t i) {
    const BranchSpec& spec = branches[i];
    results[i] =
        run_scenario(scenario(spec.config, spec.name), spec.events, &base);
  });
  return results;
}

SimulationMetrics BranchRunner::run_fresh(
    const ScenarioConfig& config,
    const std::vector<trace::TraceEvent>& events) const {
  return run_scenario(scenario(config), &events).metrics;
}

}  // namespace corropt::sim
