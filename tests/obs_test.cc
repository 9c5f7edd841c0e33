// The observability contract (DESIGN.md §8): attaching a sink changes no
// simulation outcome, and everything the sink collects — journal bytes
// and metric values — is a pure function of the scenario, independent of
// solver_threads and of the scenario-runner pool size. Wall-clock timers
// are the one sanctioned exception and live in their own snapshot
// section. The journal is also complete enough to reconstruct Figure
// 14's penalty step function without touching SimulationMetrics.
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/time.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/timer.h"
#include "scenario_runner.h"
#include "topology/fat_tree.h"

namespace corropt::obs {
namespace {

TEST(MetricsRegistryTest, CounterAccumulatesAcrossHandles) {
  MetricsRegistry registry;
  Counter a = registry.counter("decisions");
  Counter b = registry.counter("decisions");  // Get-or-create: same metric.
  a.add();
  a.add(4);
  b.add(2);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "decisions");
  EXPECT_EQ(snap.counters[0].value, 7u);
}

TEST(MetricsRegistryTest, GaugeKeepsLastSetValue) {
  MetricsRegistry registry;
  Gauge g = registry.gauge("penalty_rate");
  g.set(2.5);
  g.set(3.0);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.0);
}

TEST(MetricsRegistryTest, HistogramBucketsAndSum) {
  MetricsRegistry registry;
  Histogram h = registry.histogram("disabled_per_run", {1.0, 10.0});
  h.record(0.5);   // <= 1
  h.record(5.0);   // <= 10
  h.record(50.0);  // overflow bucket
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const MetricsSnapshot::HistogramValue& value = snap.histograms[0];
  ASSERT_EQ(value.counts.size(), 3u);  // bounds + implicit +inf.
  EXPECT_EQ(value.counts[0], 1u);
  EXPECT_EQ(value.counts[1], 1u);
  EXPECT_EQ(value.counts[2], 1u);
  EXPECT_EQ(value.count, 3u);
  EXPECT_DOUBLE_EQ(value.sum, 55.5);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry registry;
  (void)registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("x", {1.0}), std::logic_error);
  EXPECT_THROW((void)registry.timer("x"), std::logic_error);
}

TEST(MetricsRegistryTest, InertHandlesIgnoreWrites) {
  // Default-constructed handles are what instrumented components hold
  // when detached; every write must be a harmless no-op.
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  EXPECT_FALSE(static_cast<bool>(histogram));
  counter.add(3);
  gauge.set(1.0);
  histogram.record(2.0);
}

TEST(MetricsRegistryTest, TimersAreSegregatedFromHistograms) {
  MetricsRegistry registry;
  Histogram timer = registry.timer("run_s");
  timer.record(0.001);
  (void)registry.histogram("plain", {1.0});
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].name, "run_s");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "plain");

  // include_timers=false drops the non-deterministic section entirely.
  std::ostringstream with, without;
  {
    common::JsonWriter json(with);
    json.begin_object();
    snap.write_json(json, /*include_timers=*/true);
    json.end_object();
  }
  {
    common::JsonWriter json(without);
    json.begin_object();
    snap.write_json(json, /*include_timers=*/false);
    json.end_object();
  }
  EXPECT_NE(with.str().find("\"timers\""), std::string::npos);
  EXPECT_EQ(without.str().find("\"timers\""), std::string::npos);
  EXPECT_NE(without.str().find("\"histograms\""), std::string::npos);
}

TEST(ScopedTimerTest, RecordsOneSamplePerScope) {
  MetricsRegistry registry;
  Histogram timer = registry.timer("scoped_s");
  {
    const ScopedTimer scope(timer);
  }
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].count, 1u);
  EXPECT_GE(snap.timers[0].sum, 0.0);
}

TEST(EventJournalTest, StampsMonotonicSequence) {
  EventJournal journal;
  for (int i = 0; i < 3; ++i) {
    Event event;
    event.kind = EventKind::kLinkDisabled;
    event.value = static_cast<double>(i);
    journal.append(event);
  }
  const std::vector<Event> events = journal.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(i));
  }
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST(EventJournalTest, BoundedRingEvictsOldest) {
  EventJournal journal(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    journal.append(Event{});
  }
  EXPECT_EQ(journal.dropped(), 2u);
  const std::vector<Event> events = journal.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (seq 0, 1) were evicted; the rest stay in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 2);
  }
}

TEST(EventJournalTest, JsonlLineCarriesTypedFields) {
  Event event;
  event.seq = 7;
  event.time = 3600;
  event.kind = EventKind::kFastCheckVerdict;
  event.reason = EventReason::kRefusedCapacity;
  event.link = common::LinkId(12);
  event.sw = common::SwitchId(3);
  event.value = 0.25;
  std::ostringstream out;
  write_event_jsonl(out, event, "medium/c=0.75");
  const std::string line = out.str();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"scenario\":\"medium/c=0.75\""), std::string::npos);
  EXPECT_NE(line.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(line.find("\"t\":3600"), std::string::npos);
  EXPECT_NE(line.find("\"kind\":\"fast_check\""), std::string::npos);
  EXPECT_NE(line.find("\"reason\":\"refused_capacity\""), std::string::npos);
  EXPECT_NE(line.find("\"link\":12"), std::string::npos);
  EXPECT_NE(line.find("\"switch\":3"), std::string::npos);
}

TEST(SinkTest, EmitStampsTheSimulationClock) {
  EventJournal journal;
  Sink sink{nullptr, &journal, nullptr, 0};
  sink.now = 42;
  Event event;
  event.kind = EventKind::kTicketOpened;
  sink.emit(event);
  const std::vector<Event> events = journal.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].time, 42);
}

TEST(SinkTest, EmitWithoutJournalIsNoOp) {
  Sink sink;
  sink.emit(Event{});  // Must not crash.
}

}  // namespace
}  // namespace corropt::obs

namespace corropt::bench {
namespace {

// Small fat-tree with a dense fault process (the scenario_runner_test
// shape) so a 5-day CorrOpt run exercises tickets, repairs, and the
// optimizer.
ScenarioJob make_obs_job(std::size_t solver_threads, bool collect_obs) {
  ScenarioJob job;
  job.name = "obs/corropt";
  job.topology = [] { return topology::build_fat_tree(8); };
  job.trace.faults_per_link_per_day = 0.05;
  job.trace.duration = 5 * common::kDay;
  job.trace_seed = derive_seed(42, 0);
  job.config.mode = core::CheckerMode::kCorrOpt;
  job.config.capacity_fraction = 0.75;
  job.config.duration = 5 * common::kDay;
  job.config.seed = derive_seed(43, 0);
  job.config.optimizer.solver_threads = solver_threads;
  job.collect_obs = collect_obs;
  return job;
}

bench::ObsBytes deterministic_bytes(const ScenarioResult& result) {
  return bench::obs_bytes(result.obs->journal, result.obs->metrics,
                          result.name);
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& counter : snap.counters) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "missing counter " << name;
  return 0;
}

TEST(ObsIntegrationTest, AttachedSinkIsWriteOnly) {
  // Acceptance criterion: attaching observability changes nothing the
  // simulation computes — penalty and capacity outputs are bit-identical
  // to a detached run.
  const ScenarioResult detached = run_job(make_obs_job(1, false));
  const ScenarioResult attached = run_job(make_obs_job(1, true));
  EXPECT_FALSE(detached.obs);
  ASSERT_TRUE(attached.obs);

  const sim::SimulationMetrics& a = detached.metrics;
  const sim::SimulationMetrics& b = attached.metrics;
  EXPECT_EQ(a.integrated_penalty, b.integrated_penalty);
  EXPECT_EQ(a.mean_tor_fraction, b.mean_tor_fraction);
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
  EXPECT_EQ(a.controller.corruption_reports, b.controller.corruption_reports);
  EXPECT_EQ(a.controller.disabled_on_arrival, b.controller.disabled_on_arrival);
  EXPECT_EQ(a.controller.disabled_on_activation,
            b.controller.disabled_on_activation);
}

TEST(ObsIntegrationTest, JournalAndMetricsInvariantUnderSolverThreads) {
  // Acceptance criterion: the journal byte stream and every deterministic
  // metric are identical for solver_threads 1 and 4. Only the timers
  // section (wall clock) may differ.
  const ScenarioResult one = run_job(make_obs_job(1, true));
  const ScenarioResult four = run_job(make_obs_job(4, true));
  ASSERT_TRUE(one.obs);
  ASSERT_TRUE(four.obs);
  EXPECT_FALSE(one.obs->journal.empty());
  EXPECT_EQ(one.obs->journal_dropped, 0u);
  EXPECT_EQ(deterministic_bytes(one).journal,
            deterministic_bytes(four).journal);
  EXPECT_EQ(deterministic_bytes(one).metrics,
            deterministic_bytes(four).metrics);
  // And neither solver parallelism nor the sink changes the simulation.
  EXPECT_EQ(one.metrics.integrated_penalty, four.metrics.integrated_penalty);
}

TEST(ObsIntegrationTest, RunnerPoolSizeDoesNotAffectCollectedObs) {
  // Per-job registries + submission-order aggregation make the runner's
  // obs output a pure function of the job list.
  std::vector<ScenarioJob> jobs;
  jobs.push_back(make_obs_job(1, true));
  jobs.push_back(make_obs_job(2, true));
  jobs[1].name = "obs/corropt2";
  jobs[1].trace_seed = derive_seed(42, 1);
  jobs[1].config.seed = derive_seed(43, 1);
  const auto sequential = ScenarioRunner(1).run(jobs);
  const auto parallel = ScenarioRunner(3).run(jobs);
  ASSERT_EQ(sequential.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].name);
    EXPECT_EQ(deterministic_bytes(sequential[i]).journal,
              deterministic_bytes(parallel[i]).journal);
    EXPECT_EQ(deterministic_bytes(sequential[i]).metrics,
              deterministic_bytes(parallel[i]).metrics);
  }
}

TEST(ObsIntegrationTest, CountersAgreeWithSimulationMetrics) {
  const ScenarioResult result = run_job(make_obs_job(1, true));
  ASSERT_TRUE(result.obs);
  const obs::MetricsSnapshot& snap = result.obs->metrics;
  const sim::SimulationMetrics& metrics = result.metrics;
  EXPECT_EQ(counter_value(snap, "sim.faults_injected"),
            metrics.faults_injected);
  EXPECT_EQ(counter_value(snap, "sim.tickets_opened"), metrics.tickets_opened);
  EXPECT_EQ(counter_value(snap, "sim.penalty_samples"),
            metrics.penalty_series.size());
  EXPECT_EQ(counter_value(snap, "controller.corruption_reports"),
            metrics.controller.corruption_reports);
  EXPECT_EQ(counter_value(snap, "controller.tickets_issued"),
            metrics.controller.tickets_issued);
  EXPECT_EQ(counter_value(snap, "optimizer.runs"),
            metrics.controller.optimizer_runs);
  // The control loop was actually exercised.
  EXPECT_GT(counter_value(snap, "fastcheck.checks"), 0u);
  EXPECT_GT(counter_value(snap, "optimizer.runs"), 0u);
}

TEST(ObsIntegrationTest, JournalReconstructsFigure14PenaltySeries) {
  // Acceptance criterion: the journal alone suffices to rebuild Figure
  // 14. kPenaltySample records replicate the penalty step function
  // exactly, and integrating that step function reproduces
  // integrated_penalty (up to floating-point association — the internal
  // integral splits spans at capacity samples and hourly bins).
  const ScenarioResult result = run_job(make_obs_job(1, true));
  ASSERT_TRUE(result.obs);

  std::vector<sim::TimePoint> reconstructed;
  for (const obs::Event& event : result.obs->journal) {
    if (event.kind != obs::EventKind::kPenaltySample) continue;
    reconstructed.push_back({event.time, event.value});
  }
  const std::vector<sim::TimePoint>& series = result.metrics.penalty_series;
  ASSERT_EQ(reconstructed.size(), series.size());
  ASSERT_FALSE(series.empty());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(reconstructed[i].time, series[i].time);
    EXPECT_EQ(reconstructed[i].value, series[i].value);
  }

  double integral = 0.0;
  for (std::size_t i = 0; i + 1 < reconstructed.size(); ++i) {
    integral += reconstructed[i].value *
                static_cast<double>(reconstructed[i + 1].time -
                                    reconstructed[i].time);
  }
  integral += reconstructed.back().value *
              static_cast<double>(5 * common::kDay -
                                  reconstructed.back().time);
  EXPECT_GT(result.metrics.integrated_penalty, 0.0);
  EXPECT_NEAR(integral, result.metrics.integrated_penalty,
              1e-9 * result.metrics.integrated_penalty);
}

TEST(ObsIntegrationTest, CallerSinkWinsOverCollectObs) {
  // A pre-wired config.sink is the caller's; collect_obs must not
  // double-attach or overwrite it.
  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  obs::Sink sink{&registry, &journal, nullptr, 0};
  ScenarioJob job = make_obs_job(1, true);
  job.config.sink = &sink;
  const ScenarioResult result = run_job(job);
  EXPECT_FALSE(result.obs);
  EXPECT_FALSE(journal.snapshot().empty());
  EXPECT_GT(registry.snapshot().counters.size(), 0u);
}

}  // namespace
}  // namespace corropt::bench
