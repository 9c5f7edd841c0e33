// The runner's determinism contract (DESIGN.md): a sweep's metrics are a
// pure function of each job's seeds and config — independent of thread
// count, scheduling, and the presence of other jobs in the batch.
#include "scenario_runner.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/time.h"
#include "obs/journal.h"
#include "sim/mitigation_sim.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::bench {
namespace {

// Small fat-tree (256 links) with a dense fault process so that a 5-day
// scenario still exercises tickets, repairs, and the optimizer.
std::vector<ScenarioJob> make_jobs() {
  std::vector<ScenarioJob> jobs;
  const core::CheckerMode modes[] = {core::CheckerMode::kSwitchLocal,
                                     core::CheckerMode::kFastCheckerOnly,
                                     core::CheckerMode::kCorrOpt};
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      ScenarioJob job;
      const std::size_t index = 2 * m + rep;
      job.name = std::string(mode_name(modes[m])) + "/rep" +
                 std::to_string(rep);
      job.tags = {{"mode", mode_name(modes[m])},
                  {"rep", std::to_string(rep)}};
      job.topology = [] { return topology::build_fat_tree(8); };
      job.trace.faults_per_link_per_day = 0.05;
      job.trace.duration = 5 * common::kDay;
      job.trace_seed = derive_seed(42, index);
      job.config.mode = modes[m];
      job.config.capacity_fraction = 0.75;
      job.config.duration = 5 * common::kDay;
      job.config.seed = derive_seed(43, index);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

void expect_identical(const sim::SimulationMetrics& a,
                      const sim::SimulationMetrics& b) {
  // Bit-identical, not approximately equal: the runner promises the exact
  // sequential result.
  EXPECT_EQ(a.integrated_penalty, b.integrated_penalty);
  EXPECT_EQ(a.mean_tor_fraction, b.mean_tor_fraction);
  EXPECT_EQ(a.hourly_penalty, b.hourly_penalty);
  ASSERT_EQ(a.penalty_series.size(), b.penalty_series.size());
  for (std::size_t i = 0; i < a.penalty_series.size(); ++i) {
    EXPECT_EQ(a.penalty_series[i].time, b.penalty_series[i].time);
    EXPECT_EQ(a.penalty_series[i].value, b.penalty_series[i].value);
  }
  ASSERT_EQ(a.worst_tor_fraction.size(), b.worst_tor_fraction.size());
  for (std::size_t i = 0; i < a.worst_tor_fraction.size(); ++i) {
    EXPECT_EQ(a.worst_tor_fraction[i].time, b.worst_tor_fraction[i].time);
    EXPECT_EQ(a.worst_tor_fraction[i].value, b.worst_tor_fraction[i].value);
  }
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.tickets_opened, b.tickets_opened);
  EXPECT_EQ(a.repair_attempts, b.repair_attempts);
  EXPECT_EQ(a.first_attempts, b.first_attempts);
  EXPECT_EQ(a.first_attempt_successes, b.first_attempt_successes);
  EXPECT_EQ(a.undisabled_detections, b.undisabled_detections);
  EXPECT_EQ(a.mean_ticket_resolution_s, b.mean_ticket_resolution_s);
  EXPECT_EQ(a.controller.corruption_reports, b.controller.corruption_reports);
  EXPECT_EQ(a.controller.disabled_on_arrival,
            b.controller.disabled_on_arrival);
  EXPECT_EQ(a.controller.disabled_on_activation,
            b.controller.disabled_on_activation);
  EXPECT_EQ(a.controller.tickets_issued, b.controller.tickets_issued);
  EXPECT_EQ(a.controller.optimizer_runs, b.controller.optimizer_runs);
}

TEST(ScenarioRunnerTest, OneThreadMatchesManyThreadsBitForBit) {
  const std::vector<ScenarioJob> jobs = make_jobs();
  const auto sequential = ScenarioRunner(1).run(jobs);
  const auto parallel = ScenarioRunner(4).run(jobs);
  ASSERT_EQ(sequential.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].name);
    EXPECT_EQ(sequential[i].name, jobs[i].name);
    EXPECT_EQ(parallel[i].name, jobs[i].name);
    EXPECT_EQ(sequential[i].link_count, parallel[i].link_count);
    expect_identical(sequential[i].metrics, parallel[i].metrics);
  }
}

TEST(ScenarioRunnerTest, ResultsArriveInSubmissionOrder) {
  const std::vector<ScenarioJob> jobs = make_jobs();
  const auto results = ScenarioRunner(3).run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(results[i].name, jobs[i].name);
    EXPECT_EQ(results[i].tags, jobs[i].tags);
  }
}

TEST(ScenarioRunnerTest, JobsAreIndependentOfBatchComposition) {
  // Running a job alone gives the same metrics as running it in a batch:
  // no shared RNG stream, no shared topology.
  const std::vector<ScenarioJob> jobs = make_jobs();
  const auto batch = ScenarioRunner(4).run(jobs);
  const ScenarioResult alone = run_job(jobs[3]);
  expect_identical(alone.metrics, batch[3].metrics);
}

TEST(ScenarioRunnerTest, MakeDcnJobMatchesRunScenario) {
  // The job helper reproduces a hand-wired simulation of the same
  // scenario exactly: a reference independent of sim::run_scenario.
  ScenarioJob job = make_dcn_job(
      "medium/corropt", Dcn::kMedium, core::CheckerMode::kCorrOpt, 0.75,
      kFaultsPerLinkPerDay, 5 * common::kDay, /*trace_seed=*/101,
      /*sim_seed=*/7);
  const ScenarioResult from_job = run_job(job);

  topology::Topology topo = topology::build_medium_dcn();
  common::Rng trace_rng(101);
  trace::TraceParams params;
  params.faults_per_link_per_day = kFaultsPerLinkPerDay;
  params.duration = 5 * common::kDay;
  const std::vector<trace::TraceEvent> events =
      trace::CorruptionTraceGenerator(topo, params, trace_rng).generate();
  sim::ScenarioConfig config;
  config.mode = core::CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.75;
  config.duration = 5 * common::kDay;
  config.seed = 7;
  config.outcome.first_attempt_success = 0.8;
  const sim::SimulationMetrics reference =
      sim::MitigationSimulation(topo, config).run(events);

  EXPECT_EQ(from_job.link_count, topo.link_count());
  EXPECT_EQ(from_job.trace_events, events.size());
  expect_identical(from_job.metrics, reference);
  EXPECT_EQ(sim::digest(from_job.metrics), sim::digest(reference));
}

// Journal bytes and the registry snapshot without timers: everything a
// run's obs capture holds that must not depend on scheduling.
std::string obs_bytes(const ScenarioResult& result) {
  std::ostringstream out;
  for (const obs::Event& event : result.obs->journal) {
    obs::write_event_jsonl(out, event, result.name);
    out << '\n';
  }
  common::JsonWriter json(out);
  json.begin_object();
  result.obs->metrics.write_json(json, /*include_timers=*/false);
  json.end_object();
  return out.str();
}

void expect_same_runs(const std::vector<ScenarioResult>& expected,
                      const std::vector<ScenarioResult>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(expected[i].name);
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].tags, expected[i].tags);
    EXPECT_EQ(sim::digest(actual[i].metrics), sim::digest(expected[i].metrics));
    ASSERT_TRUE(expected[i].obs);
    ASSERT_TRUE(actual[i].obs);
    EXPECT_EQ(obs_bytes(actual[i]), obs_bytes(expected[i]));
  }
}

// Sweeps whose variable is prefix-inert, in the shapes the benches fork:
// a crew-size sweep branched just before the first fault onset
// (bench_ext_crew), and a detection-backend sweep branched at step 0
// (bench_detection_compare). Same trace and sim seeds in every job.
std::vector<ScenarioJob> sweep_jobs(bool crews) {
  std::vector<ScenarioJob> jobs;
  for (std::size_t v = 0; v < 3; ++v) {
    ScenarioJob job = make_jobs()[5];  // CorrOpt, rep 1.
    job.config.detection = sim::DetectionMode::kPolled;
    job.collect_obs = true;
    if (crews) {
      const int technicians[] = {1, 3, 0};
      job.config.queue.technicians = technicians[v];
      job.name = "crew=" + std::to_string(technicians[v]);
    } else {
      const detect::BackendKind kinds[] = {detect::BackendKind::kThreshold,
                                           detect::BackendKind::kVoting,
                                           detect::BackendKind::kSketch};
      job.config.backend.kind = kinds[v];
      // Small-fabric tuning so voting and sketch convict on a k=8 tree.
      job.config.backend.voting.flows_per_cycle = 600;
      job.config.backend.voting.min_votes = 2;
      job.config.backend.sketch.width = 64;
      job.config.backend.sketch.min_packets = 1000;
      job.name = detect::backend_name(kinds[v]);
    }
    job.tags = {{"variant", job.name}};
    jobs.push_back(std::move(job));
  }
  return jobs;
}

BranchedSweep before_first_onset() {
  BranchedSweep sweep;
  sweep.make_stop = [](const std::vector<trace::TraceEvent>& events) {
    const common::SimTime onset = events.empty() ? 0 : events.front().time;
    return [onset](const sim::MitigationSimulation& sim) {
      return sim.now() + common::kHour >= onset;
    };
  };
  return sweep;
}

TEST(ScenarioRunnerTest, RunBranchedMatchesRunAtAnyThreadCount) {
  for (const bool crews : {true, false}) {
    SCOPED_TRACE(crews ? "crew sweep" : "backend sweep");
    const std::vector<ScenarioJob> jobs = sweep_jobs(crews);
    const BranchedSweep sweep = crews ? before_first_onset() : BranchedSweep{};
    const std::vector<ScenarioResult> fresh = ScenarioRunner(1).run(jobs);
    // The sweep's variable matters after the fork, or this proves little.
    EXPECT_NE(sim::digest(fresh[0].metrics), sim::digest(fresh[1].metrics));
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      expect_same_runs(fresh,
                       ScenarioRunner(threads).run_branched(jobs, sweep));
    }
  }
}

TEST(ScenarioRunnerTest, RunBranchedFallsBackWhenPrefixCoversHorizon) {
  const std::vector<ScenarioJob> jobs = sweep_jobs(/*crews=*/true);
  BranchedSweep never;
  never.make_stop = [](const std::vector<trace::TraceEvent>&) {
    return [](const sim::MitigationSimulation&) { return false; };
  };
  expect_same_runs(ScenarioRunner(1).run(jobs),
                   ScenarioRunner(4).run_branched(jobs, never));
}

TEST(ScenarioRunnerTest, DeriveSeedSeparatesNearbyIndices) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
    for (std::uint64_t index = 0; index < 100; ++index) {
      seeds.insert(derive_seed(base, index));
    }
  }
  EXPECT_EQ(seeds.size(), 300u);
  // Stable across runs/platforms: pin one value.
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

TEST(ScenarioRunnerTest, WritesWellFormedMetricsJson) {
  std::vector<ScenarioJob> jobs = make_jobs();
  jobs.resize(2);
  const auto results = ScenarioRunner(2).run(jobs);
  const std::string path =
      ::testing::TempDir() + "/BENCH_scenario_runner_test.json";
  MetricsJsonOptions options;
  options.include_hourly_penalty = true;
  options.include_tor_series = true;
  write_metrics_json(path, "test_exhibit", "scenario_runner_test", 2,
                     results, options);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  // Structural sanity: balanced braces/brackets and the schema markers.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
  EXPECT_NE(text.find("\"schema\": \"corropt-bench-metrics/1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"exhibit\": \"test_exhibit\""), std::string::npos);
  EXPECT_NE(text.find("\"integrated_penalty\""), std::string::npos);
  EXPECT_NE(text.find("\"hourly_penalty\""), std::string::npos);
  EXPECT_NE(text.find("\"worst_tor_fraction\""), std::string::npos);
  EXPECT_NE(text.find(jobs[0].name), std::string::npos);
  std::remove(path.c_str());
}

BenchArgs parse_one(std::string flag,
                    std::span<const NumberFlag> extra = {}) {
  std::string program = "bench_test";
  char* argv[] = {program.data(), flag.data(), nullptr};
  return parse_bench_args(2, argv, extra);
}

TEST(ParseBenchArgsTest, AcceptsThreadCountsInRange) {
  EXPECT_EQ(parse_one("--threads=1").threads, 1u);
  EXPECT_EQ(parse_one("--threads=4").threads, 4u);
  EXPECT_EQ(parse_one("--threads=256").threads, kMaxBenchThreads);
}

// The extra flags of bench_fleet (--dcs, --seed) and bench_whatif
// (--replay-at), as those benches declare them.
struct ExtraFlags {
  std::optional<std::uint64_t> dcs;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> replay_at;
  const NumberFlag flags[3] = {
      {.name = "--dcs", .help = "", .min = 1, .max = 1000, .value = &dcs},
      {.name = "--seed", .help = "", .value = &seed},
      {.name = "--replay-at", .help = "", .value = &replay_at},
  };
};

TEST(ParseBenchArgsTest, AcceptsExtraNumberFlags) {
  ExtraFlags extra;
  (void)parse_one("--dcs=70", extra.flags);
  (void)parse_one("--seed=18446744073709551615", extra.flags);
  (void)parse_one("--replay-at=0", extra.flags);
  EXPECT_EQ(extra.dcs, 70u);
  EXPECT_EQ(extra.seed, 18446744073709551615ull);
  EXPECT_EQ(extra.replay_at, 0u);
  // Flags a bench did not declare stay unset.
  ExtraFlags untouched;
  (void)parse_one("--quick", untouched.flags);
  EXPECT_FALSE(untouched.dcs || untouched.seed || untouched.replay_at);
}

// A value that is not a whole number in the flag's range is a bad
// command line: usage on stderr and exit code 2, never a silent default.
TEST(ParseBenchArgsDeathTest, RejectsMalformedThreadCounts) {
  for (const char* flag :
       {"--threads=0", "--threads=-1", "--threads=abc", "--threads=4x",
        "--threads=", "--threads=+4", "--threads= 4", "--threads=257",
        "--threads=99999999999999999999999"}) {
    EXPECT_EXIT(parse_one(flag), ::testing::ExitedWithCode(2), "usage:")
        << flag;
  }
}

TEST(ParseBenchArgsDeathTest, RejectsMalformedExtraNumbers) {
  ExtraFlags extra;
  for (const char* flag :
       {"--dcs=0", "--dcs=1001", "--dcs=-5", "--dcs=7x", "--dcs=",
        "--seed=+1", "--seed=abc", "--seed=18446744073709551616",
        "--seed=1 ", "--replay-at=-1", "--replay-at=1e3", "--replay-at",
        "--replay-at=0x10", "--dcsx=5"}) {
    EXPECT_EXIT(parse_one(flag, extra.flags), ::testing::ExitedWithCode(2),
                "usage:")
        << flag;
  }
  // Without the declaration the flag is unknown, whatever its value.
  EXPECT_EXIT(parse_one("--dcs=5"), ::testing::ExitedWithCode(2), "usage:");
}

}  // namespace
}  // namespace corropt::bench
