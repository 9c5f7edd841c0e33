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
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/time.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/timer.h"
#include "obs_oracles.h"
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

// The deterministic sections of a snapshot as one string, so two
// snapshots compare in names, order and values at once.
std::string deterministic_json(const MetricsSnapshot& snap) {
  std::ostringstream out;
  common::JsonWriter json(out);
  json.begin_object();
  snap.write_json(json, /*include_timers=*/false);
  json.end_object();
  return out.str();
}

TEST(MetricsRegistryTest, RestoreCreatesOnlyNonzeroUnknownEntries) {
  MetricsSnapshot snap;
  snap.counters = {{"hits", 5}, {"misses", 0}};
  snap.gauges = {{"rate", 2.5}, {"idle", 0.0}};
  snap.histograms = {{"sizes", {1.0, 10.0}, {1, 0, 2}, 3, 41.0},
                     {"empty", {1.0}, {0, 0}, 0, 0.0}};
  MetricsRegistry registry;
  registry.restore(snap);

  const MetricsSnapshot after = registry.snapshot();
  ASSERT_EQ(after.counters.size(), 1u);
  EXPECT_EQ(after.counters[0].name, "hits");
  EXPECT_EQ(after.counters[0].value, 5u);
  ASSERT_EQ(after.gauges.size(), 1u);
  EXPECT_EQ(after.gauges[0].name, "rate");
  EXPECT_EQ(after.gauges[0].value, 2.5);
  ASSERT_EQ(after.histograms.size(), 1u);
  EXPECT_EQ(after.histograms[0].name, "sizes");
  EXPECT_EQ(after.histograms[0].counts, (std::vector<std::uint64_t>{1, 0, 2}));
  EXPECT_EQ(after.histograms[0].count, 3u);
  EXPECT_EQ(after.histograms[0].sum, 41.0);
  EXPECT_TRUE(after.timers.empty());

  // A restored entry is a live metric: handles resolve to it.
  registry.counter("hits").add(2);
  registry.histogram("sizes", {1.0, 10.0}).record(4.0);
  const MetricsSnapshot later = registry.snapshot();
  EXPECT_EQ(later.counters[0].value, 7u);
  EXPECT_EQ(later.histograms[0].counts, (std::vector<std::uint64_t>{1, 1, 2}));
  EXPECT_EQ(later.histograms[0].sum, 45.0);
}

TEST(MetricsRegistryTest, RestoreOverwritesNamedAndZeroesUnnamedEntries) {
  MetricsRegistry registry;
  registry.counter("named").add(9);
  registry.counter("unnamed").add(4);
  registry.gauge("level").set(7.0);
  registry.histogram("sizes", {1.0}).record(3.0);

  MetricsSnapshot snap;
  snap.counters = {{"named", 2}};
  registry.restore(snap);

  const MetricsSnapshot after = registry.snapshot();
  ASSERT_EQ(after.counters.size(), 2u);
  EXPECT_EQ(after.counters[0].name, "named");
  EXPECT_EQ(after.counters[0].value, 2u);
  EXPECT_EQ(after.counters[1].name, "unnamed");
  EXPECT_EQ(after.counters[1].value, 0u);
  ASSERT_EQ(after.gauges.size(), 1u);
  EXPECT_EQ(after.gauges[0].value, 0.0);
  ASSERT_EQ(after.histograms.size(), 1u);
  EXPECT_EQ(after.histograms[0].bounds, std::vector<double>{1.0});
  EXPECT_EQ(after.histograms[0].counts, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(after.histograms[0].count, 0u);
  EXPECT_EQ(after.histograms[0].sum, 0.0);
}

TEST(MetricsRegistryTest, RestoreLeavesTimersUntouched) {
  MetricsRegistry registry;
  registry.timer("run_s").record(0.5);

  // Neither a snapshot that omits the timer nor one that carries other
  // timer values changes it: wall time is outside the contract.
  MetricsSnapshot other;
  other.timers = {{"run_s", {1.0}, {0, 4}, 4, 9.0}};
  registry.restore(other);
  registry.restore(MetricsSnapshot{});

  const MetricsSnapshot after = registry.snapshot();
  ASSERT_EQ(after.timers.size(), 1u);
  EXPECT_EQ(after.timers[0].count, 1u);
  EXPECT_EQ(after.timers[0].sum, 0.5);
  EXPECT_TRUE(after.histograms.empty());
}

TEST(MetricsRegistryTest, RestoreKindOrBoundsMismatchThrows) {
  MetricsRegistry registry;
  (void)registry.counter("x");
  (void)registry.histogram("h", {1.0, 2.0});

  MetricsSnapshot as_gauge;
  as_gauge.gauges = {{"x", 1.0}};
  EXPECT_THROW(registry.restore(as_gauge), std::runtime_error);
  MetricsSnapshot as_histogram;
  as_histogram.histograms = {{"x", {1.0}, {1, 0}, 1, 0.5}};
  EXPECT_THROW(registry.restore(as_histogram), std::runtime_error);
  MetricsSnapshot as_counter;
  as_counter.counters = {{"h", 3}};
  EXPECT_THROW(registry.restore(as_counter), std::runtime_error);
  MetricsSnapshot other_bounds;
  other_bounds.histograms = {{"h", {1.0, 3.0}, {1, 0, 0}, 1, 0.5}};
  EXPECT_THROW(registry.restore(other_bounds), std::runtime_error);
}

// One run's instrumented code: construction resolves the handles of
// the first half; the second half also registers metrics first written
// only then (as components attach mid-run).
void construct(MetricsRegistry& registry) {
  (void)registry.counter("steps");
  (void)registry.gauge("rate");
  (void)registry.counter("never");
  (void)registry.histogram("sizes", {1.0, 4.0});
  (void)registry.timer("step_s");
}

void first_half(MetricsRegistry& registry) {
  registry.counter("steps").add(3);
  registry.gauge("rate").set(0.25);
  registry.histogram("sizes", {1.0, 4.0}).record(2.0);
  registry.timer("step_s").record(0.001);
}

void second_half(MetricsRegistry& registry) {
  registry.counter("steps").add(2);
  registry.counter("late").add(1);
  registry.gauge("rate").set(0.5);
  registry.histogram("sizes", {1.0, 4.0}).record(8.0);
  registry.histogram("late_sizes", {2.0}).record(1.0);
  registry.gauge("late_level").set(1.5);
}

TEST(MetricsRegistryTest, RestoreKeepsFreshRunSnapshotOrder) {
  MetricsRegistry fresh;
  construct(fresh);
  first_half(fresh);
  const MetricsSnapshot at_pause = fresh.snapshot();
  second_half(fresh);

  // A branch constructs, restores the pause snapshot and runs on.
  MetricsRegistry branch;
  construct(branch);
  branch.restore(at_pause);
  second_half(branch);
  EXPECT_EQ(deterministic_json(branch.snapshot()),
            deterministic_json(fresh.snapshot()));

  // Restoring into a registry that already ran to the end gives the
  // same document: the later metrics are zeroed, not dropped.
  MetricsRegistry dirty;
  construct(dirty);
  first_half(dirty);
  second_half(dirty);
  dirty.restore(at_pause);
  second_half(dirty);
  EXPECT_EQ(deterministic_json(dirty.snapshot()),
            deterministic_json(fresh.snapshot()));
}

// Relaxed atomics make concurrent writes from several threads exact:
// no increment is lost, and integer-valued sums are exact in a double.
TEST(MetricsRegistryTest, ConcurrentWritesSumExactly) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kWrites = 100000;
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      const Counter counter = registry.counter("adds");
      const Histogram histogram = registry.histogram("values", {1.0, 2.0});
      for (std::uint64_t i = 0; i < kWrites; ++i) {
        counter.add();
        histogram.record(static_cast<double>(i % 3));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, kThreads * kWrites);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const MetricsSnapshot::HistogramValue& values = snap.histograms[0];
  EXPECT_EQ(values.count, kThreads * kWrites);
  // A value equal to a bound lands in the bucket above it: 0, 1 and 2
  // fill the three buckets in turn.
  std::vector<std::uint64_t> counts(3, 0);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    counts[i % 3] += kThreads;
    sum += static_cast<double>(kThreads * (i % 3));
  }
  EXPECT_EQ(values.counts, counts);
  EXPECT_EQ(values.sum, sum);
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

// obs::digest folds the codec walk of the journal and the registry's
// deterministic sections: changing any field of any record, or a
// counter, gauge, histogram bucket or sum, changes it; a timer does not.
TEST(ObsDigestTest, EveryFieldChangesIt) {
  Event first;
  first.seq = 4;
  first.time = 3600;
  first.kind = EventKind::kOptimizerRun;
  first.reason = EventReason::kActivation;
  first.link = common::LinkId(5);
  first.sw = common::SwitchId(2);
  first.ticket = common::TicketId(8);
  first.value = 1e-5;
  first.value2 = 2e-6;
  first.detail0 = 3;
  first.detail1 = 17;
  Event second = first;
  second.seq = 5;
  const std::vector<Event> journal = {first, second};

  MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.gauge("g").set(0.25);
  const Histogram histogram = registry.histogram("h", {1.0, 10.0});
  histogram.record(0.5);
  histogram.record(5.0);
  registry.timer("t").record(1e-3);
  const MetricsSnapshot metrics = registry.snapshot();
  ASSERT_EQ(metrics.histograms.size(), 1u);
  ASSERT_EQ(metrics.timers.size(), 1u);

  const std::uint64_t base = digest(journal, metrics);
  EXPECT_EQ(digest(std::vector<Event>(journal), MetricsSnapshot(metrics)),
            base);

  using PerturbEvent = void (*)(Event&);
  const std::vector<std::pair<const char*, PerturbEvent>> events = {
      {"seq", [](Event& e) { e.seq++; }},
      {"time", [](Event& e) { e.time++; }},
      {"kind", [](Event& e) { e.kind = EventKind::kLinkDisabled; }},
      {"reason", [](Event& e) { e.reason = EventReason::kArrival; }},
      {"link", [](Event& e) { e.link = common::LinkId(6); }},
      {"sw", [](Event& e) { e.sw = common::SwitchId(3); }},
      {"ticket", [](Event& e) { e.ticket = common::TicketId(9); }},
      {"value", [](Event& e) { e.value *= 2; }},
      {"value2", [](Event& e) { e.value2 *= 2; }},
      {"detail0", [](Event& e) { e.detail0++; }},
      {"detail1", [](Event& e) { e.detail1++; }},
  };
  for (const auto& [field, perturb] : events) {
    std::vector<Event> changed = journal;
    perturb(changed[1]);
    EXPECT_NE(digest(changed, metrics), base) << field;
  }
  EXPECT_NE(digest({first}, metrics), base) << "journal length";

  using PerturbMetrics = void (*)(MetricsSnapshot&);
  const std::vector<std::pair<const char*, PerturbMetrics>> sections = {
      {"counter", [](MetricsSnapshot& m) { m.counters[0].value++; }},
      {"gauge", [](MetricsSnapshot& m) { m.gauges[0].value = 0.5; }},
      {"histogram bucket",
       [](MetricsSnapshot& m) { m.histograms[0].counts[2]++; }},
      {"histogram sum", [](MetricsSnapshot& m) { m.histograms[0].sum += 1; }},
  };
  for (const auto& [field, perturb] : sections) {
    MetricsSnapshot changed = metrics;
    perturb(changed);
    EXPECT_NE(digest(journal, changed), base) << field;
  }

  MetricsSnapshot timer_changed = metrics;
  timer_changed.timers[0].counts[0]++;
  timer_changed.timers[0].sum += 1.0;
  EXPECT_EQ(digest(journal, timer_changed), base);
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

testing::ObsBytes deterministic_bytes(const ScenarioResult& result) {
  return testing::obs_bytes(result.obs->journal, result.obs->metrics,
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
