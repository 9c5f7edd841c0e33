// Tests for the runtime control-loop service (DESIGN.md §12): churn
// stream synthesis, cold-vs-incremental decision equivalence after every
// event, the drift (unnoted external change) escape hatch, segment
// solution reuse, and the corruption-set penalty cache it leans on.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "corropt/corruption_set.h"
#include "corropt/penalty.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "service/churn.h"
#include "service/control_loop.h"
#include "topology/fat_tree.h"

namespace corropt {
namespace {

topology::Topology make_test_clos() {
  topology::ClosSpec spec;
  spec.pods = 4;
  spec.tors_per_pod = 4;
  spec.aggs_per_pod = 4;
  spec.spine_group_size = 4;
  return topology::build_clos(spec);
}

service::ChurnParams demanding_churn(std::uint64_t seed) {
  service::ChurnParams params;
  // Dense enough that several corrupting links overlap in time and the
  // 87.5% constraint refuses some disables (contested segments).
  params.trace.faults_per_link_per_day = 0.02;
  params.trace.duration = 30 * common::kDay;
  params.trace.p_burst = 0.25;
  params.trace.burst_max = 4;
  params.seed = seed;
  return params;
}

service::ControlLoopConfig loop_config(bool incremental,
                                       std::size_t solver_threads) {
  service::ControlLoopConfig config;
  config.controller.mode = core::CheckerMode::kCorrOpt;
  config.controller.capacity_fraction = 0.875;
  config.controller.optimizer.solver_threads = solver_threads;
  config.controller.incremental = incremental;
  return config;
}

// FNV-1a over journal records with kOptimizerRun.detail1 masked: that
// field is subsets_evaluated, a search-effort diagnostic the
// equivalence contract exempts.
std::uint64_t journal_digest(const obs::EventJournal& journal) {
  std::uint64_t digest = common::kFnvBasis;
  auto fold = [&digest](std::uint64_t value) {
    digest = common::fnv1a(digest, value);
  };
  for (const obs::Event& event : journal.snapshot()) {
    fold(event.seq);
    fold(static_cast<std::uint64_t>(event.time));
    fold(static_cast<std::uint64_t>(event.kind));
    fold(static_cast<std::uint64_t>(event.reason));
    fold(event.link.value());
    fold(event.sw.value());
    fold(event.ticket.value());
    fold(std::bit_cast<std::uint64_t>(event.value));
    fold(std::bit_cast<std::uint64_t>(event.value2));
    fold(event.detail0);
    fold(event.kind == obs::EventKind::kOptimizerRun ? 0 : event.detail1);
  }
  return digest;
}

TEST(ChurnStreamTest, DeterministicInSeed) {
  const topology::Topology topo = make_test_clos();
  const service::ChurnParams params = demanding_churn(7);
  const auto a = service::make_churn_stream(topo, params);
  const auto b = service::make_churn_stream(topo, params);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].link, b[i].link);
    EXPECT_EQ(a[i].loss_rate, b[i].loss_rate);
  }
  const auto c = service::make_churn_stream(topo, demanding_churn(8));
  EXPECT_NE(a.size() == c.size() &&
                std::equal(a.begin(), a.end(), c.begin(),
                           [](const service::TelemetryEvent& x,
                              const service::TelemetryEvent& y) {
                             return x.time == y.time && x.link == y.link;
                           }),
            true);
}

TEST(ChurnStreamTest, WellFormed) {
  const topology::Topology topo = make_test_clos();
  const auto events =
      service::make_churn_stream(topo, demanding_churn(11));
  ASSERT_FALSE(events.empty());
  std::size_t detections = 0;
  std::size_t closures = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(events[i - 1].time, events[i].time);
    }
    EXPECT_LT(events[i].link.index(), topo.link_count());
    if (events[i].kind == service::TelemetryKind::kCorruptionDetected) {
      ++detections;
      EXPECT_GE(events[i].loss_rate, core::kLossyThreshold);
    } else {
      ++closures;
    }
  }
  // Every detection has exactly one terminating event.
  EXPECT_EQ(detections, closures);
}

// The tentpole contract: the incremental control loop makes identical
// decisions to a cold one after every single event, for serial and
// parallel segment solving.
class EquivalenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EquivalenceTest, IncrementalMatchesColdAfterEveryEvent) {
  const std::size_t solver_threads = GetParam();
  const topology::Topology base = make_test_clos();
  const auto events =
      service::make_churn_stream(base, demanding_churn(2026));
  ASSERT_GT(events.size(), 50u);

  topology::Topology cold_topo = base;
  topology::Topology warm_topo = base;
  obs::MetricsRegistry cold_metrics, warm_metrics;
  obs::EventJournal cold_journal, warm_journal;
  obs::Sink cold_sink{&cold_metrics, &cold_journal, nullptr, 0};
  obs::Sink warm_sink{&warm_metrics, &warm_journal, nullptr, 0};
  service::ControlLoop cold(cold_topo, loop_config(false, solver_threads),
                            &cold_sink);
  service::ControlLoop warm(warm_topo, loop_config(true, solver_threads),
                            &warm_sink);

  std::size_t refused_seen = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    cold.process(events[i]);
    warm.process(events[i]);
    ASSERT_TRUE(cold_topo.enabled_mask() == warm_topo.enabled_mask())
        << "enabled mask diverged after event " << i;
    ASSERT_EQ(cold.controller().active_penalty(),
              warm.controller().active_penalty())
        << "active penalty diverged after event " << i;
    const core::Controller::Stats& cs = cold.controller().stats();
    const core::Controller::Stats& ws = warm.controller().stats();
    ASSERT_EQ(cs.corruption_reports, ws.corruption_reports);
    ASSERT_EQ(cs.disabled_on_arrival, ws.disabled_on_arrival);
    ASSERT_EQ(cs.disabled_on_activation, ws.disabled_on_activation);
    ASSERT_EQ(cs.tickets_issued, ws.tickets_issued);
    ASSERT_EQ(cs.optimizer_runs, ws.optimizer_runs);
    ASSERT_EQ(cold.controller().corruption().size(),
              warm.controller().corruption().size());
    refused_seen = std::max(
        refused_seen, cs.corruption_reports - cs.disabled_on_arrival);
  }
  EXPECT_EQ(cold.decisions_digest(), warm.decisions_digest());
  EXPECT_EQ(journal_digest(cold_journal), journal_digest(warm_journal));
  // The scenario must actually have exercised contested capacity,
  // otherwise the equivalence above is vacuous.
  EXPECT_GT(refused_seen, 0u);
  EXPECT_GT(warm.controller().stats().optimizer_runs, 5u);
  const core::OptimizerIncrementalStats& stats =
      warm.controller().optimizer().incremental_stats();
  EXPECT_GT(stats.runs, 0u);
  EXPECT_EQ(stats.cold_fallbacks, 0u);
  EXPECT_GT(stats.baseline_delta_recounts, 0u);
}

INSTANTIATE_TEST_SUITE_P(SolverThreads, EquivalenceTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST(ServiceTest, VerifyIncrementalModeAcceptsChurn) {
  topology::Topology topo = make_test_clos();
  const auto events = service::make_churn_stream(topo, demanding_churn(5));
  service::ControlLoopConfig config = loop_config(true, 1);
  config.controller.verify_incremental = true;
  service::ControlLoop loop(topo, config);
  // Throws std::logic_error on any incremental-vs-cold divergence.
  for (const service::TelemetryEvent& event : events) {
    ASSERT_NO_THROW(loop.process(event));
  }
  EXPECT_GT(loop.controller().stats().optimizer_runs, 0u);
}

TEST(ServiceTest, UnnotedExternalChangeFallsBackCold) {
  const topology::Topology base = make_test_clos();
  const auto events =
      service::make_churn_stream(base, demanding_churn(2026));
  topology::Topology cold_topo = base;
  topology::Topology warm_topo = base;
  service::ControlLoop cold(cold_topo, loop_config(false, 1));
  service::ControlLoop warm(warm_topo, loop_config(true, 1));

  const std::size_t half = events.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    cold.process(events[i]);
    warm.process(events[i]);
  }
  // An operator (not the controller) takes a healthy link down in both
  // worlds. The incremental loop was never notified: its next optimizer
  // run must detect the version drift and rebuild cold — and keep
  // matching the cold loop afterwards.
  common::LinkId victim;
  for (std::size_t i = 0; i < base.link_count(); ++i) {
    if (cold_topo.is_enabled(common::LinkId(i)) &&
        warm.controller().corruption().rate(common::LinkId(i)) == 0.0) {
      victim = common::LinkId(i);
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  cold_topo.set_enabled(victim, false);
  warm_topo.set_enabled(victim, false);
  for (std::size_t i = half; i < events.size(); ++i) {
    cold.process(events[i]);
    warm.process(events[i]);
    ASSERT_TRUE(cold_topo.enabled_mask() == warm_topo.enabled_mask())
        << "diverged after event " << i;
  }
  EXPECT_GE(warm.controller().optimizer().incremental_stats().cold_fallbacks,
            1u);
}

TEST(ServiceTest, UnchangedSegmentIsReused) {
  // A contested segment in pod 0 (an agg's full uplink bundle corrupting
  // under a demanding constraint) plus repair churn confined to pod 3:
  // the pod-0 segment's sweep region never changes between optimizer
  // runs, so the second run must answer it from the cache.
  topology::Topology topo = make_test_clos();
  service::ControlLoopConfig config = loop_config(true, 1);
  service::ControlLoop loop(topo, config);

  const common::SwitchId tor0 = topo.tors().front();
  const common::SwitchId agg0 =
      topo.link_at(topo.switch_at(tor0).uplinks[0]).upper;
  common::SimTime now = 0;
  for (common::LinkId link : topo.switch_at(agg0).uplinks) {
    loop.process({now++, service::TelemetryKind::kCorruptionDetected, link,
                  1e-3});
  }
  const common::SwitchId tor_far = topo.tors().back();
  const common::LinkId far_link = topo.switch_at(tor_far).uplinks[0];
  for (int round = 0; round < 3; ++round) {
    loop.process({now++, service::TelemetryKind::kCorruptionDetected,
                  far_link, 1e-4});
    loop.process({now++, service::TelemetryKind::kLinkRepaired, far_link,
                  0.0});
  }
  const core::OptimizerIncrementalStats& stats =
      loop.controller().optimizer().incremental_stats();
  EXPECT_GE(stats.runs, 3u);
  EXPECT_GE(stats.segment_reuses, 1u);
}

// Satellite: CorruptionSet::total_active_penalty is cached behind the
// topology state version and the set's mutation epoch, so repeated
// reads (Controller::active_penalty per telemetry event) are O(1); any
// enable/disable/mark/unmark transition must invalidate it.
TEST(CorruptionPenaltyCacheTest, TracksTransitions) {
  topology::Topology topo = make_test_clos();
  const core::PenaltyFunction linear = core::PenaltyFunction::linear();
  core::CorruptionSet corruption;
  const common::LinkId a = topo.tors().size() > 0
                               ? topo.switch_at(topo.tors()[0]).uplinks[0]
                               : common::LinkId(0);
  const common::LinkId b = topo.switch_at(topo.tors()[1]).uplinks[0];

  EXPECT_EQ(corruption.total_active_penalty(topo, linear), 0.0);
  corruption.mark(a, 1e-3);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear), linear(1e-3));
  // Repeated read: served from cache, same value.
  EXPECT_EQ(corruption.total_active_penalty(topo, linear), linear(1e-3));
  corruption.mark(b, 1e-4);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear),
            linear(1e-3) + linear(1e-4));
  // Disabling an active corrupting link removes its contribution.
  topo.set_enabled(a, false);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear), linear(1e-4));
  // Re-enabling restores it.
  topo.set_enabled(a, true);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear),
            linear(1e-3) + linear(1e-4));
  // Clearing (unmark) removes the entry entirely.
  corruption.unmark(a);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear), linear(1e-4));
  // Re-marking at a new rate is picked up (epoch bump, same topology).
  corruption.mark(b, 1e-2);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear), linear(1e-2));
  // A different penalty function must not be served the old cache.
  const core::PenaltyFunction log_pen = core::PenaltyFunction::tcp_throughput();
  EXPECT_NE(corruption.total_active_penalty(topo, log_pen),
            corruption.total_active_penalty(topo, linear));
  // No-op set_enabled (already enabled) must not disturb correctness.
  topo.set_enabled(b, true);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear), linear(1e-2));
}

// Selecting the default threshold backend explicitly must leave the
// churn stream byte-identical: all backend shaping draws are
// counter-keyed, never taken from the sequential trace/repair stream.
TEST(ChurnStream, ThresholdBackendIsByteIdenticalToDefault) {
  const topology::Topology topo = make_test_clos();
  const service::ChurnParams defaults = demanding_churn(11);
  service::ChurnParams explicit_threshold = demanding_churn(11);
  explicit_threshold.backend.kind = detect::BackendKind::kThreshold;
  // Non-kind backend knobs must not matter for the neutral profile.
  explicit_threshold.backend.sketch.width = 16;
  explicit_threshold.backend.voting.flows_per_cycle = 1;

  const auto a = service::make_churn_stream(topo, defaults);
  const auto b = service::make_churn_stream(topo, explicit_threshold);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].link.value(), b[i].link.value());
    EXPECT_EQ(a[i].loss_rate, b[i].loss_rate);
  }
}

// A non-default backend shapes the stream per detect::backend_profile:
// detections arrive later and spurious report/retraction pairs appear,
// but the set of genuine faults is unchanged.
TEST(ChurnStream, VotingBackendDelaysDetectionsAndAddsSpuriousPairs) {
  const topology::Topology topo = make_test_clos();
  const service::ChurnParams defaults = demanding_churn(11);
  service::ChurnParams voting = demanding_churn(11);
  voting.backend.kind = detect::BackendKind::kVoting;

  const auto base = service::make_churn_stream(topo, defaults);
  const auto shaped = service::make_churn_stream(topo, voting);
  ASSERT_FALSE(base.empty());

  auto count = [](const std::vector<service::TelemetryEvent>& events,
                  service::TelemetryKind kind) {
    std::size_t n = 0;
    for (const auto& event : events) {
      if (event.kind == kind) ++n;
    }
    return n;
  };
  const std::size_t base_detected =
      count(base, service::TelemetryKind::kCorruptionDetected);
  const std::size_t shaped_detected =
      count(shaped, service::TelemetryKind::kCorruptionDetected);
  // Voting adds spurious detections (each later retracted), never drops
  // genuine ones.
  EXPECT_GE(shaped_detected, base_detected);
  EXPECT_EQ(shaped_detected - base_detected,
            count(shaped, service::TelemetryKind::kCorruptionCleared) -
                count(base, service::TelemetryKind::kCorruptionCleared));

  // Every genuine detection is delayed by the backend's extra latency:
  // summed detection time strictly grows, and every event still closes
  // (the stream stays balanced: one terminating event per detection).
  double base_sum = 0.0;
  double shaped_sum = 0.0;
  for (const auto& event : base) {
    if (event.kind == service::TelemetryKind::kCorruptionDetected) {
      base_sum += static_cast<double>(event.time);
    }
  }
  for (const auto& event : shaped) {
    // Spurious reports carry exactly twice the lossy threshold; skip
    // them so the sums compare genuine detections only.
    if (event.kind == service::TelemetryKind::kCorruptionDetected &&
        event.loss_rate != 2.0 * core::kLossyThreshold) {
      shaped_sum += static_cast<double>(event.time);
    }
  }
  EXPECT_GT(shaped_sum, base_sum);
  EXPECT_EQ(shaped.size() % 2, 0u);
  EXPECT_TRUE(std::is_sorted(
      shaped.begin(), shaped.end(),
      [](const service::TelemetryEvent& a, const service::TelemetryEvent& b) {
        return a.time < b.time;
      }));
}

}  // namespace
}  // namespace corropt
