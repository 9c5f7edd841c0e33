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
// the fresh run do different amounts of solving, and a second one at
// bench_whatif's fault density, where clears re-key the fault
// injector's affected-link list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs_oracles.h"
#include "scenario_runner.h"
#include "sim/branch_runner.h"
#include "sim/mitigation_sim.h"
#include "sim/scenario.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::sim {
namespace {

testing::ObsBytes obs_bytes(const obs::EventJournal& journal,
                          const obs::MetricsRegistry& registry) {
  return testing::obs_bytes(journal.snapshot(), registry.snapshot());
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
  config.backend = kind;
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
  testing::ObsBytes obs;
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
        EXPECT_TRUE(obs_bytes(sinks[i].journal, sinks[i].registry) ==
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
  EXPECT_TRUE(testing::obs_bytes(branch.obs->journal, branch.obs->metrics) ==
              testing::obs_bytes(fresh.obs->journal, fresh.obs->metrics));

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

// bench_whatif's storm density on a k=8 fat tree: 100x the default
// fault rate over breakout bundles, so shared-component faults strike
// links that other faults also list, and repairs clear faults that are
// the first to list a link a later fault still lists (the clears that
// re-key the injector's affected-link list). Past the fork the branch
// reads that list rebuilt by the restore, the fresh run the one it kept
// up through every inject and clear; metrics and obs digests must agree
// for the unchanged future and a divergent one, on 1 and 4 threads.
TEST(BranchRunner, StormDensityBranchEqualsFresh) {
  const auto storm_topology = [] {
    auto topo = topology::build_fat_tree(8);
    topo.assign_breakout_groups(4, 0);
    topo.assign_breakout_groups(4, 1);
    return topo;
  };
  constexpr common::SimDuration kHorizon = 20 * common::kDay;
  const auto storm_config = [](obs::Sink* sink) {
    ScenarioConfig config;
    config.mode = core::CheckerMode::kCorrOpt;
    config.capacity_fraction = 0.75;
    config.duration = kHorizon;
    config.seed = 2017;
    config.sink = sink;
    return config;
  };
  BranchRunner runner(storm_topology);
  const topology::Topology trace_topo = storm_topology();
  common::Rng rng(29);
  trace::TraceParams params;
  params.faults_per_link_per_day *= 100;
  params.duration = kHorizon;
  const auto events =
      trace::CorruptionTraceGenerator(trace_topo, params, rng).generate();

  // Links a multi-link fault lists and a later fault lists too: when the
  // earlier fault clears first, the link re-keys under the later one.
  std::size_t shared_overlaps = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].fault.links.size() < 2) continue;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      for (const common::LinkId link : events[j].fault.links) {
        if (std::ranges::find(events[i].fault.links, link) !=
            events[i].fault.links.end()) {
          ++shared_overlaps;
        }
      }
    }
  }
  ASSERT_GT(shared_overlaps, 0u);

  SinkSet base_sinks;
  const Checkpoint base = runner.checkpoint_base(
      storm_config(&base_sinks.sink), events,
      [](const MitigationSimulation& sim) {
        return sim.now() >= kHorizon / 2;
      });
  ASSERT_FALSE(base.empty());
  ASSERT_LT(base.trace_cursor, events.size());

  const auto whatif = divergent_suffix(events, base.trace_cursor);
  const std::vector<const std::vector<trace::TraceEvent>*> traces{
      &events, &whatif};
  // (sim::digest, obs::digest) per trace.
  const auto digests = [](const SimulationMetrics& metrics,
                          const SinkSet& sinks) {
    return std::pair(digest(metrics), obs::digest(sinks.journal.snapshot(),
                                                  sinks.registry.snapshot()));
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fresh;
  for (const auto* trace_events : traces) {
    SinkSet sinks;
    const SimulationMetrics metrics =
        runner.run_fresh(storm_config(&sinks.sink), *trace_events);
    ASSERT_GT(metrics.repair_attempts, 0u);
    fresh.push_back(digests(metrics, sinks));
  }
  ASSERT_NE(fresh[0].first, fresh[1].first)
      << "the divergent suffix must actually change the outcome";

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    std::vector<SinkSet> sinks(traces.size());
    std::vector<BranchSpec> specs;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      BranchSpec spec;
      spec.name = i == 0 ? "base-trace" : "whatif-trace";
      spec.config = storm_config(&sinks[i].sink);
      spec.events = traces[i];
      specs.push_back(std::move(spec));
    }
    common::ThreadPool pool(threads);
    const std::vector<BranchResult> results = runner.run(base, specs, pool);
    ASSERT_EQ(results.size(), traces.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(digests(results[i].metrics, sinks[i]), fresh[i])
          << "branch " << specs[i].name;
    }
  }
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

// The identity digests decide exactly what the JSONL text of the same
// capture decides: equal on a branch and its fresh run, different on a
// counterfactual branch that genuinely diverged.
TEST(BranchRunner, CodecDigestsAgreeWithJsonlBytes) {
  BranchRunner runner(make_topology);
  const topology::Topology trace_topo = make_topology();
  const auto events = base_trace(trace_topo);

  SinkSet base_sinks;
  const Checkpoint base = runner.checkpoint_base(
      backend_config(detect::BackendKind::kThreshold, &base_sinks.sink),
      events, [](const MitigationSimulation& sim) {
        return sim.now() >= common::kDay;
      });
  ASSERT_FALSE(base.empty());

  std::vector<SinkSet> sinks(2);
  std::vector<BranchSpec> specs(2);
  specs[0].name = "same";
  specs[0].config =
      backend_config(detect::BackendKind::kThreshold, &sinks[0].sink);
  specs[0].events = &events;
  specs[1].name = "mode=switch-local";
  specs[1].config =
      backend_config(detect::BackendKind::kThreshold, &sinks[1].sink);
  specs[1].config.mode = core::CheckerMode::kSwitchLocal;
  specs[1].events = &events;
  common::ThreadPool pool(2);
  const std::vector<BranchResult> results = runner.run(base, specs, pool);

  SinkSet fresh_sinks;
  const SimulationMetrics fresh = runner.run_fresh(
      backend_config(detect::BackendKind::kThreshold, &fresh_sinks.sink),
      events);
  const auto obs_digest = [](const SinkSet& set) {
    return obs::digest(set.journal.snapshot(), set.registry.snapshot());
  };

  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(results[i].name);
    const bool same_text = obs_bytes(sinks[i].journal, sinks[i].registry) ==
                           obs_bytes(fresh_sinks.journal, fresh_sinks.registry);
    EXPECT_EQ(obs_digest(sinks[i]) == obs_digest(fresh_sinks), same_text);
    EXPECT_EQ(digest(results[i].metrics) == digest(fresh), same_text);
    EXPECT_EQ(same_text, i == 0);
  }
}

}  // namespace
}  // namespace corropt::sim
