#include "sim/scenario.h"

#include <chrono>
#include <utility>

#include "common/rng.h"
#include "obs/sink.h"

namespace corropt::sim {

namespace {

// The sink a run attaches when its scenario collects obs: per run, so
// the captured snapshot and journal do not depend on the pool size.
struct LocalSink {
  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  obs::Sink sink{&registry, &journal, nullptr, 0};
};

bool collects(const Scenario& scenario) {
  return scenario.collect_obs && scenario.config.sink == nullptr;
}

ScenarioConfig wired_config(const Scenario& scenario, LocalSink& local) {
  ScenarioConfig config = scenario.config;
  if (collects(scenario)) config.sink = &local.sink;
  return config;
}

}  // namespace

std::vector<trace::TraceEvent> make_trace(const topology::Topology& topo,
                                          const trace::TraceParams& params,
                                          std::uint64_t seed) {
  common::Rng rng(seed);
  return trace::CorruptionTraceGenerator(topo, params, rng).generate();
}

std::vector<trace::TraceEvent> scenario_trace(const Scenario& scenario) {
  return make_trace(scenario.topology(), scenario.trace, scenario.trace_seed);
}

ScenarioRun run_scenario(const Scenario& scenario,
                         const std::vector<trace::TraceEvent>* events,
                         const Checkpoint* from) {
  const auto start = std::chrono::steady_clock::now();
  topology::Topology topo = scenario.topology();
  std::vector<trace::TraceEvent> own_events;
  if (events == nullptr) {
    own_events = make_trace(topo, scenario.trace, scenario.trace_seed);
    events = &own_events;
  }
  LocalSink local;
  MitigationSimulation sim(topo, wired_config(scenario, local));
  if (from != nullptr) {
    sim.restore_run(*events, *from);
  } else {
    sim.begin_run(*events);
  }
  while (sim.step()) {
  }

  ScenarioRun run;
  run.name = scenario.name;
  run.metrics = sim.finish_run();
  run.link_count = topo.link_count();
  run.switch_count = topo.switch_count();
  run.trace_events = events->size();
  if (collects(scenario)) {
    run.obs = ObsCapture{local.registry.snapshot(), local.journal.snapshot(),
                         local.journal.dropped()};
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return run;
}

Checkpoint checkpoint_scenario(const Scenario& scenario,
                               const std::vector<trace::TraceEvent>& events,
                               const StopPredicate& stop) {
  topology::Topology topo = scenario.topology();
  LocalSink local;
  MitigationSimulation sim(topo, wired_config(scenario, local));
  sim.begin_run(events);
  while (!sim.finished()) {
    if (stop(sim)) return sim.snapshot();
    if (!sim.step()) break;
  }
  (void)sim.finish_run();
  return Checkpoint{};
}

}  // namespace corropt::sim
