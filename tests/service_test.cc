// Tests for the runtime control-loop service (DESIGN.md §12): churn
// stream synthesis, the cached optimizer matching a fresh one after
// every event (search counters included), external link changes and
// checkpoint restores with no change notes, segment solution reuse, and
// the corruption-set penalty total it reads after every event.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/lossy.h"
#include "common/snapshot.h"
#include "corropt/capacity.h"
#include "corropt/corruption_set.h"
#include "corropt/optimizer.h"
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

service::ControlLoopConfig loop_config() {
  service::ControlLoopConfig config;
  config.controller.mode = core::CheckerMode::kCorrOpt;
  config.controller.capacity_fraction = 0.875;
  return config;
}

std::uint64_t counter_value(const obs::MetricsRegistry& metrics,
                            const std::string& name) {
  for (const auto& counter : metrics.snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// The registry counters one optimizer run adds to, in the order the
// equivalence test reads them back into an OptimizerResult.
const char* const kRunCounters[] = {
    "optimizer.pruned_safe_disables", "optimizer.segments",
    "optimizer.subsets_evaluated",    "optimizer.cache_skips",
    "optimizer.accept_skips",         "optimizer.bound_skips"};

std::vector<std::uint64_t> run_counters(const obs::MetricsRegistry& metrics) {
  std::vector<std::uint64_t> values;
  for (const char* name : kRunCounters) {
    values.push_back(counter_value(metrics, name));
  }
  return values;
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
      EXPECT_GE(events[i].loss_rate, common::kLossyThreshold);
    } else {
      ++closures;
    }
  }
  // Every detection has exactly one terminating event.
  EXPECT_EQ(detections, closures);
}

// The cache contract: after every event, the controller's optimizer run
// equals that of a genuinely cold oracle — a fresh Optimizer handed the
// same corruption set on a copy of the topology — in every result field
// but segment_reuses, search counters included. The run is read back
// from the journal (with kOptimizerRun.detail1, subsets_evaluated,
// unmasked) and the registry.
TEST(EquivalenceTest, IncrementalMatchesColdAfterEveryEvent) {
  topology::Topology topo = make_test_clos();
  const auto events = service::make_churn_stream(topo, demanding_churn(2026));
  ASSERT_GT(events.size(), 50u);

  const service::ControlLoopConfig config = loop_config();
  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  obs::Sink sink{&metrics, &journal, nullptr, 0};
  service::ControlLoop loop(topo, config, &sink);
  const core::CapacityConstraint constraint(
      config.controller.capacity_fraction);

  std::size_t optimizer_runs = 0;
  std::size_t searched_runs = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const service::TelemetryEvent& event = events[i];
    if (event.kind != service::TelemetryKind::kLinkRepaired) {
      loop.process(event);
      continue;
    }
    // The controller's repair path, replayed cold: unmark, re-enable,
    // solve with an optimizer that has never run before.
    topology::Topology cold_topo = topo;
    core::CorruptionSet corruption = loop.controller().corruption();
    corruption.unmark(event.link);
    cold_topo.set_enabled(event.link, true);
    core::PathCounter cold_paths(cold_topo);
    core::Optimizer cold(cold_topo, cold_paths, constraint,
                         core::PenaltyFunction::linear(),
                         config.controller.optimizer);
    const core::OptimizerResult want = cold.run(corruption);

    const std::vector<std::uint64_t> before = run_counters(metrics);
    const std::size_t journal_before = journal.snapshot().size();
    loop.process(event);
    const std::vector<std::uint64_t> after = run_counters(metrics);
    const std::vector<obs::Event> records = journal.snapshot();

    core::OptimizerResult got;
    bool journaled = false;
    for (std::size_t r = journal_before; r < records.size(); ++r) {
      const obs::Event& record = records[r];
      if (record.kind == obs::EventKind::kOptimizerRun) {
        journaled = true;
        got.disabled_penalty = record.value;
        got.remaining_penalty = record.value2;
        EXPECT_EQ(record.detail0, want.disabled.size()) << "event " << i;
        got.subsets_evaluated = record.detail1;
      } else if (journaled && record.kind == obs::EventKind::kLinkDisabled) {
        got.disabled.push_back(record.link);
      }
    }
    ASSERT_TRUE(journaled) << "event " << i;
    got.pruned_safe_disables = after[0] - before[0];
    got.segments = after[1] - before[1];
    ASSERT_EQ(got.subsets_evaluated, after[2] - before[2]) << "event " << i;
    got.cache_skips = after[3] - before[3];
    got.accept_skips = after[4] - before[4];
    got.bound_skips = after[5] - before[5];
    // The journal does not carry `exact`; the oracle's stands in.
    got.exact = want.exact;
    ASSERT_TRUE(core::same_outcome(got, want))
        << "optimizer run diverged from the cold oracle at event " << i
        << ": subsets " << got.subsets_evaluated << " vs "
        << want.subsets_evaluated << ", disabled " << got.disabled.size()
        << " vs " << want.disabled.size();
    ASSERT_TRUE(cold_topo.enabled_mask() == topo.enabled_mask())
        << "enabled mask diverged after event " << i;
    ++optimizer_runs;
    if (want.subsets_evaluated > 0) ++searched_runs;
  }
  // The scenario must actually have searched contested segments and
  // answered some from the cache, otherwise the equality is vacuous.
  EXPECT_GT(optimizer_runs, 5u);
  EXPECT_GT(searched_runs, 0u);
  const core::OptimizerIncrementalStats& stats =
      loop.controller().optimizer().incremental_stats();
  EXPECT_GT(stats.segment_reuses, 0u);
  EXPECT_EQ(stats.cold_fallbacks, 0u);
  EXPECT_GT(stats.baseline_delta_recounts, 0u);
}

TEST(ServiceTest, VerifyIncrementalModeAcceptsChurn) {
  topology::Topology topo = make_test_clos();
  const auto events = service::make_churn_stream(topo, demanding_churn(5));
  service::ControlLoopConfig config = loop_config();
  config.controller.verify_incremental = true;
  service::ControlLoop loop(topo, config);
  // Throws std::logic_error on any cached-vs-cold divergence, search
  // counters included.
  for (const service::TelemetryEvent& event : events) {
    ASSERT_NO_THROW(loop.process(event));
  }
  EXPECT_GT(loop.controller().stats().optimizer_runs, 0u);
}

// Links flipped outside the controller need no report: the path-count
// caches follow the enabled mask. Operator disables, a link disabled
// and re-enabled between events, and a checkpoint restored into a loop
// with a different history all leave the checked loops deciding exactly
// like the reference loop, every optimizer run matching a fresh
// optimizer (verify_incremental), without a second full baseline
// recount.
TEST(ServiceTest, ExternalChangesNeedNoNote) {
  const topology::Topology base = make_test_clos();
  const auto events =
      service::make_churn_stream(base, demanding_churn(2026));
  topology::Topology reference_topo = base;
  topology::Topology warm_topo = base;
  service::ControlLoopConfig checked = loop_config();
  checked.controller.verify_incremental = true;
  service::ControlLoop reference(reference_topo, loop_config());
  service::ControlLoop warm(warm_topo, checked);
  // A loop with another history, which later takes over from a
  // checkpoint of the warm loop.
  topology::Topology dirty_topo = base;
  service::ControlLoop dirty(dirty_topo, checked);
  const auto other = service::make_churn_stream(base, demanding_churn(99));
  for (std::size_t i = 0; i < other.size() / 2; ++i) dirty.process(other[i]);

  // A healthy enabled link not yet used by this test.
  std::vector<common::LinkId> used;
  auto healthy_link = [&]() {
    for (std::size_t i = 0; i < base.link_count(); ++i) {
      const common::LinkId link(
          static_cast<common::LinkId::underlying_type>(i));
      if (reference_topo.is_enabled(link) &&
          reference.controller().corruption().rate(link) == 0.0 &&
          std::find(used.begin(), used.end(), link) == used.end()) {
        used.push_back(link);
        return link;
      }
    }
    return common::LinkId();
  };
  std::vector<topology::Topology*> worlds = {&reference_topo, &warm_topo};
  auto set_everywhere = [&](common::LinkId link, bool enabled) {
    ASSERT_TRUE(link.valid());
    for (topology::Topology* topo : worlds) topo->set_enabled(link, enabled);
  };
  // loops[k] controls worlds[k + 1].
  std::vector<service::ControlLoop*> loops = {&warm};
  auto replay = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      reference.process(events[i]);
      for (std::size_t k = 0; k < loops.size(); ++k) {
        service::ControlLoop* loop = loops[k];
        loop->process(events[i]);
        ASSERT_TRUE(reference_topo.enabled_mask() ==
                    worlds[k + 1]->enabled_mask())
            << "diverged after event " << i;
        ASSERT_EQ(reference.controller().active_penalty(),
                  loop->controller().active_penalty())
            << "active penalty diverged after event " << i;
      }
    }
  };

  const std::size_t quarter = events.size() / 4;
  replay(0, quarter);
  // Operator disables in every world.
  set_everywhere(healthy_link(), false);
  set_everywhere(healthy_link(), false);
  replay(quarter, 2 * quarter);
  // A link taken down and brought back before the next event.
  const common::LinkId bounced = healthy_link();
  set_everywhere(bounced, false);
  set_everywhere(bounced, true);
  replay(2 * quarter, 3 * quarter);

  // Restore the warm loop's topology and controller into the dirty loop
  // mid-stream; from here on it must decide like the other two.
  common::snap::Writer w;
  warm_topo.snapshot_to(w);
  warm.controller().snapshot_to(w);
  const std::string bytes = w.take();
  common::snap::Reader r(bytes);
  dirty_topo.restore_from(r);
  dirty.controller().restore_from(r);
  EXPECT_TRUE(r.at_end());
  worlds.push_back(&dirty_topo);
  loops.push_back(&dirty);
  replay(3 * quarter, events.size());

  for (service::ControlLoop* loop : {&warm, &dirty}) {
    const core::OptimizerIncrementalStats& stats =
        loop->controller().optimizer().incremental_stats();
    EXPECT_EQ(stats.baseline_full_recounts, 1u);
    EXPECT_GT(stats.baseline_delta_recounts, 0u);
    EXPECT_EQ(stats.cold_fallbacks, 0u);
  }
}

TEST(ServiceTest, UnchangedSegmentIsReused) {
  // A contested segment in pod 0 (an agg's full uplink bundle corrupting
  // under a demanding constraint) plus repair churn confined to pod 3:
  // the pod-0 segment's sweep region never changes between optimizer
  // runs, so the second run must answer it from the cache. A region link
  // taken down and brought back between runs leaves the mask, and so
  // the cached solution, as it was.
  topology::Topology topo = make_test_clos();
  service::ControlLoopConfig config = loop_config();
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

  const std::size_t reuses = stats.segment_reuses;
  const common::LinkId region_link = topo.switch_at(tor0).uplinks[1];
  topo.set_enabled(region_link, false);
  topo.set_enabled(region_link, true);
  loop.process({now++, service::TelemetryKind::kCorruptionDetected, far_link,
                1e-4});
  loop.process({now++, service::TelemetryKind::kLinkRepaired, far_link, 0.0});
  EXPECT_GT(stats.segment_reuses, reuses);
}

// CorruptionSet::total_active_penalty (Controller::active_penalty, read
// after every telemetry event) must follow every enable, disable, mark
// and unmark, and the penalty function it is asked for.
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
  // Repeated read: same value.
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
  // Re-marking at a new rate is picked up.
  corruption.mark(b, 1e-2);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear), linear(1e-2));
  // A different penalty function gives a different total.
  const core::PenaltyFunction log_pen = core::PenaltyFunction::tcp_throughput();
  EXPECT_NE(corruption.total_active_penalty(topo, log_pen),
            corruption.total_active_penalty(topo, linear));
  // No-op set_enabled (already enabled) must not disturb correctness.
  topo.set_enabled(b, true);
  EXPECT_EQ(corruption.total_active_penalty(topo, linear), linear(1e-2));
}

}  // namespace
}  // namespace corropt
