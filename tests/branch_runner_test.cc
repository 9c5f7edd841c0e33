// BranchRunner equivalence tests (DESIGN.md §14).
//
// The branch contract: a branch forked from a mid-run checkpoint and run
// to the horizon is byte-equivalent to a fresh end-to-end run of the
// same scenario — for every detection backend (threshold, 007-voting,
// sketch) and for any thread count. The suite forks branches whose
// fault-trace *suffixes* diverge from the base (the what-if pattern of
// bench_whatif), compares each against its own fresh reference, and
// re-runs the fan-out on 1- and 4-thread pools expecting identical
// results. A final case exercises the counterfactual mode: restoring a
// threshold-backend checkpoint into voting/sketch branches (the backend
// payload is skipped; evidence restarts fresh). A storm case checks the
// contract where the optimizer's cross-run caches make the branch and
// the fresh run do different amounts of solving.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/branch_runner.h"
#include "sim/mitigation_sim.h"
#include "sim/scenario.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::sim {
namespace {

std::string obs_bytes(const std::vector<obs::Event>& journal,
                      const obs::MetricsSnapshot& metrics) {
  std::ostringstream out;
  for (const obs::Event& event : journal) {
    obs::write_event_jsonl(out, event);
    out << '\n';
  }
  common::JsonWriter json(out);
  json.begin_object();
  metrics.write_json(json, /*include_timers=*/false);
  json.end_object();
  return out.str();
}

std::string obs_bytes(const obs::EventJournal& journal,
                      const obs::MetricsRegistry& registry) {
  return obs_bytes(journal.snapshot(), registry.snapshot());
}

topology::Topology make_topology() {
  auto topo = topology::build_fat_tree(4);
  topo.assign_breakout_groups(2, 0);
  topo.assign_breakout_groups(2, 1);
  return topo;
}

ScenarioConfig backend_config(detect::BackendKind kind, obs::Sink* sink) {
  ScenarioConfig config;
  config.mode = core::CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.5;
  config.duration = 2 * common::kDay;
  config.seed = 91;
  config.detection = DetectionMode::kPolled;
  config.verification = RepairVerification::kEnableAndObserve;
  config.outcome.first_attempt_success = 0.6;
  config.backend.kind = kind;
  // Small-fabric tuning: the defaults target the medium DCN's flow and
  // packet volumes; scale the evidence thresholds down so the voting and
  // sketch backends actually convict on a 4-ary fat tree.
  config.backend.voting.flows_per_cycle = 600;
  config.backend.voting.min_votes = 2;
  config.backend.sketch.width = 64;
  config.backend.sketch.min_packets = 1000;
  config.sink = sink;
  return config;
}

std::vector<trace::TraceEvent> base_trace(const topology::Topology& topo) {
  common::Rng rng(131);
  trace::TraceParams params;
  params.faults_per_link_per_day = 0.5;
  params.duration = common::kDay + common::kDay / 2;
  return trace::CorruptionTraceGenerator(topo, params, rng).generate();
}

// A what-if suffix: identical history up to `cursor` events, then the
// remaining onsets shifted later and their severities scaled — a
// different future that still satisfies the trace-sharing contract.
std::vector<trace::TraceEvent> divergent_suffix(
    const std::vector<trace::TraceEvent>& events, std::size_t cursor) {
  std::vector<trace::TraceEvent> out = events;
  for (std::size_t i = cursor; i < out.size(); ++i) {
    out[i].time += common::kHour;
  }
  return out;
}

struct SinkSet {
  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  obs::Sink sink{&registry, &journal, nullptr, 0};
};

struct BranchOutput {
  std::uint64_t metrics_digest = 0;
  std::string obs;
};

TEST(BranchRunner, BranchEqualsFreshForEveryBackendAndThreadCount) {
  for (const detect::BackendKind kind :
       {detect::BackendKind::kThreshold, detect::BackendKind::kVoting,
        detect::BackendKind::kSketch}) {
    SCOPED_TRACE(::testing::Message()
                 << "backend=" << detect::backend_name(kind));
    BranchRunner runner(make_topology);
    const topology::Topology trace_topo = make_topology();
    const auto events = base_trace(trace_topo);

    // Freeze the base at ~60% of the horizon.
    SinkSet base_sinks;
    const Checkpoint base = runner.checkpoint_base(
        backend_config(kind, &base_sinks.sink), events,
        [](const MitigationSimulation& sim) {
          return sim.now() >= (2 * common::kDay) * 6 / 10;
        });
    ASSERT_FALSE(base.empty());
    ASSERT_GT(base.trace_cursor, 0u);
    ASSERT_LT(base.trace_cursor, events.size());

    const auto whatif = divergent_suffix(events, base.trace_cursor);
    const std::vector<const std::vector<trace::TraceEvent>*> traces{
        &events, &whatif};

    // Fresh references, one per trace.
    std::vector<BranchOutput> fresh;
    for (const auto* trace_events : traces) {
      SinkSet sinks;
      topology::Topology topo = make_topology();
      MitigationSimulation sim(topo, backend_config(kind, &sinks.sink));
      const SimulationMetrics metrics = sim.run(*trace_events);
      fresh.push_back(
          {digest(metrics), obs_bytes(sinks.journal, sinks.registry)});
    }
    ASSERT_NE(fresh[0].metrics_digest, fresh[1].metrics_digest)
        << "the divergent suffix must actually change the outcome";

    // Branched execution on 1- and 4-thread pools.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      std::vector<SinkSet> sinks(traces.size());
      std::vector<BranchSpec> specs;
      for (std::size_t i = 0; i < traces.size(); ++i) {
        BranchSpec spec;
        spec.name = i == 0 ? "base-trace" : "whatif-trace";
        spec.config = backend_config(kind, &sinks[i].sink);
        spec.events = traces[i];
        specs.push_back(std::move(spec));
      }
      common::ThreadPool pool(threads);
      const std::vector<BranchResult> results =
          runner.run(base, specs, pool);
      ASSERT_EQ(results.size(), traces.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].name, specs[i].name);
        EXPECT_EQ(digest(results[i].metrics),
                  fresh[i].metrics_digest)
            << "branch " << specs[i].name
            << " metrics diverged from the fresh run";
        EXPECT_EQ(obs_bytes(sinks[i].journal, sinks[i].registry),
                  fresh[i].obs)
            << "branch " << specs[i].name
            << " journal/registry diverged from the fresh run";
      }
    }
  }
}

// The storm regime of bench_whatif in miniature: dense bursty faults
// under a demanding constraint keep contested segments alive across many
// optimizer runs. Past the fork point the fresh run answers segments
// from the caches it built up, while the branch, restored with empty
// caches, solves them cold. A reused segment reports the search counters
// of the solve it replays, so journal (kOptimizerRun.detail1 included)
// and registry bytes still match.
TEST(BranchRunner, StormBranchEqualsFreshDespiteColdOptimizerCaches) {
  Scenario scenario;
  scenario.name = "storm";
  scenario.topology = [] {
    topology::ClosSpec spec;
    spec.pods = 4;
    spec.tors_per_pod = 4;
    spec.aggs_per_pod = 4;
    spec.spine_group_size = 4;
    return topology::build_clos(spec);
  };
  scenario.trace.faults_per_link_per_day = 0.05;
  scenario.trace.p_burst = 0.25;
  scenario.trace.burst_max = 4;
  scenario.trace.duration = 6 * common::kDay;
  scenario.trace_seed = 17;
  scenario.config.mode = core::CheckerMode::kCorrOpt;
  scenario.config.capacity_fraction = 0.875;
  scenario.config.duration = scenario.trace.duration;
  scenario.config.seed = 5;
  scenario.collect_obs = true;

  const std::vector<trace::TraceEvent> events = scenario_trace(scenario);
  const common::SimTime fork = 3 * common::kDay;
  const Checkpoint base = checkpoint_scenario(
      scenario, events,
      [fork](const MitigationSimulation& sim) { return sim.now() >= fork; });
  ASSERT_FALSE(base.empty());

  const ScenarioRun fresh = run_scenario(scenario, &events);
  const ScenarioRun branch = run_scenario(scenario, &events, &base);
  ASSERT_TRUE(fresh.obs.has_value());
  ASSERT_TRUE(branch.obs.has_value());
  EXPECT_EQ(digest(branch.metrics), digest(fresh.metrics));
  EXPECT_EQ(obs_bytes(branch.obs->journal, branch.obs->metrics),
            obs_bytes(fresh.obs->journal, fresh.obs->metrics));

  // The suffix must search contested segments, or the caches had nothing
  // to answer.
  std::size_t searched_after_fork = 0;
  for (const obs::Event& event : fresh.obs->journal) {
    if (event.kind == obs::EventKind::kOptimizerRun && event.time >= fork &&
        event.detail1 > 0) {
      ++searched_after_fork;
    }
  }
  EXPECT_GT(searched_after_fork, 3u);
}

// run_fresh is the reference implementation the contract is stated
// against; it must agree with a plain MitigationSimulation::run.
TEST(BranchRunner, RunFreshMatchesPlainRun) {
  BranchRunner runner(make_topology);
  const topology::Topology trace_topo = make_topology();
  const auto events = base_trace(trace_topo);
  const ScenarioConfig config =
      backend_config(detect::BackendKind::kThreshold, nullptr);
  const SimulationMetrics via_runner = runner.run_fresh(config, events);
  topology::Topology topo = make_topology();
  MitigationSimulation sim(topo, config);
  const SimulationMetrics direct = sim.run(events);
  EXPECT_EQ(digest(via_runner), digest(direct));
}

// Counterfactual mode: same history, different future *configuration*.
// A threshold-backend checkpoint restored into voting/sketch branches
// must skip the foreign backend payload (fresh evidence) and run clean;
// config-derived deltas (crew bound, disabled optimizer budget via
// checker mode) reconcile the schedule rather than crash it.
TEST(BranchRunner, CounterfactualConfigBranchesRunClean) {
  BranchRunner runner(make_topology);
  const topology::Topology trace_topo = make_topology();
  const auto events = base_trace(trace_topo);

  SinkSet base_sinks;
  const ScenarioConfig base_config =
      backend_config(detect::BackendKind::kThreshold, &base_sinks.sink);
  const Checkpoint base = runner.checkpoint_base(
      base_config, events, [](const MitigationSimulation& sim) {
        return sim.now() >= common::kDay;
      });
  ASSERT_FALSE(base.empty());

  std::vector<SinkSet> sinks(4);
  std::vector<BranchSpec> specs;
  {
    BranchSpec spec;
    spec.name = "backend=voting";
    spec.config = backend_config(detect::BackendKind::kVoting, &sinks[0].sink);
    spec.events = &events;
    specs.push_back(std::move(spec));
  }
  {
    BranchSpec spec;
    spec.name = "backend=sketch";
    spec.config = backend_config(detect::BackendKind::kSketch, &sinks[1].sink);
    spec.events = &events;
    specs.push_back(std::move(spec));
  }
  {
    BranchSpec spec;
    spec.name = "crew=1";
    spec.config =
        backend_config(detect::BackendKind::kThreshold, &sinks[2].sink);
    spec.config.queue.technicians = 1;
    spec.events = &events;
    specs.push_back(std::move(spec));
  }
  {
    BranchSpec spec;
    spec.name = "mode=switch-local";
    spec.config =
        backend_config(detect::BackendKind::kThreshold, &sinks[3].sink);
    spec.config.mode = core::CheckerMode::kSwitchLocal;
    spec.events = &events;
    specs.push_back(std::move(spec));
  }

  common::ThreadPool pool(2);
  const std::vector<BranchResult> results = runner.run(base, specs, pool);
  ASSERT_EQ(results.size(), specs.size());
  // The shared history is part of every branch's metrics: the fault count
  // can only grow from the prefix, and the penalty stays finite.
  for (const BranchResult& result : results) {
    SCOPED_TRACE(result.name);
    EXPECT_GE(result.metrics.faults_injected, base.trace_cursor);
    EXPECT_TRUE(std::isfinite(result.metrics.integrated_penalty));
    EXPECT_GE(result.metrics.integrated_penalty, 0.0);
  }
  // The counterfactuals genuinely diverge from the unmodified branch
  // config's fresh outcome.
  SinkSet fresh_sinks;
  topology::Topology topo = make_topology();
  MitigationSimulation fresh(
      topo, backend_config(detect::BackendKind::kThreshold, &fresh_sinks.sink));
  const SimulationMetrics fresh_metrics = fresh.run(events);
  EXPECT_NE(digest(results[3].metrics), digest(fresh_metrics));
}

}  // namespace
}  // namespace corropt::sim
