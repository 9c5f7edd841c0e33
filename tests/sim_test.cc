#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "corropt/path_counter.h"
#include "fault_oracles.h"
#include "sim/mitigation_sim.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::sim {
namespace {

std::vector<trace::TraceEvent> make_trace(const topology::Topology& topo,
                                          double per_link_per_day,
                                          common::SimDuration duration,
                                          std::uint64_t seed) {
  common::Rng rng(seed);
  trace::TraceParams params;
  params.faults_per_link_per_day = per_link_per_day;
  params.duration = duration;
  return trace::CorruptionTraceGenerator(topo, params, rng).generate();
}

TEST(MitigationSim, EmptyTraceIsQuiet) {
  auto topo = topology::build_fat_tree(4);
  ScenarioConfig config;
  config.duration = 10 * common::kDay;
  MitigationSimulation sim(topo, config);
  const SimulationMetrics metrics = sim.run({});
  EXPECT_DOUBLE_EQ(metrics.integrated_penalty, 0.0);
  EXPECT_EQ(metrics.faults_injected, 0u);
  EXPECT_EQ(metrics.tickets_opened, 0u);
  EXPECT_DOUBLE_EQ(metrics.mean_tor_fraction, 1.0);
  for (const TimePoint& p : metrics.worst_tor_fraction) {
    EXPECT_DOUBLE_EQ(p.value, 1.0);
  }
}

// The components read the controller's live counts, folded through the
// link flips of every actor. A run restored mid-way starts from counts
// of the restored mask; had the folded counts drifted from a cold
// recount, the two runs would decide differently after the fork.
TEST(MitigationSim, LiveCountsMatchRestoredRecount) {
  auto topo = topology::build_fat_tree(4);
  ScenarioConfig config;
  config.duration = 5 * common::kDay;
  const auto events = make_trace(topo, 0.2, config.duration, 7);
  MitigationSimulation sim(topo, config);
  sim.begin_run(events);
  while (sim.now() < 2 * common::kDay && sim.step()) {
  }
  const Checkpoint mid = sim.snapshot();
  while (sim.step()) {
  }
  const SimulationMetrics metrics = sim.finish_run();
  EXPECT_GT(metrics.tickets_opened, 0u);

  auto restored_topo = topology::build_fat_tree(4);
  MitigationSimulation restored(restored_topo, config);
  restored.restore_run(events, mid);
  while (restored.step()) {
  }
  EXPECT_EQ(digest(restored.finish_run()), digest(metrics));
  EXPECT_TRUE(restored_topo.enabled_mask() == topo.enabled_mask());
}

// sim::digest folds the codec walk, so every field is in it exactly
// when the checkpoint carries it: changing any one field, any series
// element's time or value, changes the digest.
TEST(MetricsDigest, EveryFieldChangesIt) {
  SimulationMetrics base;
  base.penalty_series = {{0, 0.0}, {60, 1e-6}};
  base.integrated_penalty = 3.5;
  base.hourly_penalty = {1.0, 2.5};
  base.worst_tor_fraction = {{0, 1.0}, {3600, 0.75}};
  base.disabled_links = {{0, 0.0}, {3600, 2.0}};
  base.mean_tor_fraction = 0.9;
  base.faults_injected = 7;
  base.tickets_opened = 6;
  base.repair_attempts = 5;
  base.first_attempt_successes = 3;
  base.first_attempts = 4;
  base.redetections = 1;
  base.polled_detections = 2;
  base.mean_detection_latency_s = 450.0;
  base.false_positive_detections = 1;
  base.missed_detections = 1;
  base.detection_latencies_s = {300.0, 600.0};
  base.mean_ticket_resolution_s = 86400.0;
  base.maintenance_windows = 2;
  base.maintenance_capacity_violations = 1;
  base.collateral_link_seconds = 120.0;
  base.undisabled_detections = 1;
  base.controller.corruption_reports = 9;
  base.controller.disabled_on_arrival = 4;
  base.controller.disabled_on_activation = 2;
  base.controller.tickets_issued = 6;
  base.controller.optimizer_runs = 3;

  using Perturb = void (*)(SimulationMetrics&);
  const std::vector<std::pair<const char*, Perturb>> perturbations = {
      {"penalty_series.time", [](auto& m) { m.penalty_series[1].time++; }},
      {"penalty_series.value",
       [](auto& m) { m.penalty_series[1].value *= 2; }},
      {"penalty_series.size", [](auto& m) { m.penalty_series.pop_back(); }},
      {"integrated_penalty", [](auto& m) { m.integrated_penalty += 0.5; }},
      {"hourly_penalty", [](auto& m) { m.hourly_penalty[0] += 0.5; }},
      {"worst_tor_fraction.time",
       [](auto& m) { m.worst_tor_fraction[1].time++; }},
      {"worst_tor_fraction.value",
       [](auto& m) { m.worst_tor_fraction[1].value = 0.5; }},
      {"disabled_links.time", [](auto& m) { m.disabled_links[1].time++; }},
      {"disabled_links.value", [](auto& m) { m.disabled_links[1].value++; }},
      {"mean_tor_fraction", [](auto& m) { m.mean_tor_fraction = 0.8; }},
      {"faults_injected", [](auto& m) { m.faults_injected++; }},
      {"tickets_opened", [](auto& m) { m.tickets_opened++; }},
      {"repair_attempts", [](auto& m) { m.repair_attempts++; }},
      {"first_attempt_successes",
       [](auto& m) { m.first_attempt_successes++; }},
      {"first_attempts", [](auto& m) { m.first_attempts++; }},
      {"redetections", [](auto& m) { m.redetections++; }},
      {"polled_detections", [](auto& m) { m.polled_detections++; }},
      {"mean_detection_latency_s",
       [](auto& m) { m.mean_detection_latency_s += 1.0; }},
      {"false_positive_detections",
       [](auto& m) { m.false_positive_detections++; }},
      {"missed_detections", [](auto& m) { m.missed_detections++; }},
      {"detection_latencies_s",
       [](auto& m) { m.detection_latencies_s[1] += 1.0; }},
      {"mean_ticket_resolution_s",
       [](auto& m) { m.mean_ticket_resolution_s += 1.0; }},
      {"maintenance_windows", [](auto& m) { m.maintenance_windows++; }},
      {"maintenance_capacity_violations",
       [](auto& m) { m.maintenance_capacity_violations++; }},
      {"collateral_link_seconds",
       [](auto& m) { m.collateral_link_seconds += 1.0; }},
      {"undisabled_detections", [](auto& m) { m.undisabled_detections++; }},
      {"controller.corruption_reports",
       [](auto& m) { m.controller.corruption_reports++; }},
      {"controller.disabled_on_arrival",
       [](auto& m) { m.controller.disabled_on_arrival++; }},
      {"controller.disabled_on_activation",
       [](auto& m) { m.controller.disabled_on_activation++; }},
      {"controller.tickets_issued",
       [](auto& m) { m.controller.tickets_issued++; }},
      {"controller.optimizer_runs",
       [](auto& m) { m.controller.optimizer_runs++; }},
  };
  const std::uint64_t base_digest = digest(base);
  EXPECT_EQ(digest(SimulationMetrics(base)), base_digest);
  for (const auto& [field, perturb] : perturbations) {
    SimulationMetrics changed = base;
    perturb(changed);
    EXPECT_NE(digest(changed), base_digest) << field;
  }
}

TEST(MitigationSim, SingleFaultLifecycle) {
  auto topo = topology::build_fat_tree(8);
  ScenarioConfig config;
  config.duration = 10 * common::kDay;
  config.capacity_fraction = 0.5;
  config.outcome.first_attempt_success = 1.0;
  config.seed = 3;

  // One handmade fault at day 1 on a ToR uplink.
  common::Rng rng(9);
  faults::FaultMixParams mix;
  faults::FaultFactory factory(topo, mix, rng);
  trace::TraceEvent event;
  event.time = common::kDay;
  event.fault = factory.make_fault(
      topo.switch_at(topo.tors().front()).uplinks[0],
      faults::RootCause::kConnectorContamination, event.time);

  MitigationSimulation sim(topo, config);
  const SimulationMetrics metrics = sim.run({event});
  EXPECT_EQ(metrics.faults_injected, 1u);
  EXPECT_EQ(metrics.tickets_opened, 1u);
  EXPECT_EQ(metrics.repair_attempts, 1u);
  EXPECT_EQ(metrics.first_attempt_successes, 1u);
  // The link was disabled immediately, so it accrued no penalty, and it
  // came back after the 2-day repair.
  EXPECT_DOUBLE_EQ(metrics.integrated_penalty, 0.0);
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

TEST(MitigationSim, UndisabledCorruptionAccruesPenalty) {
  auto topo = topology::build_fat_tree(4);
  ScenarioConfig config;
  config.duration = 4 * common::kDay;
  config.capacity_fraction = 1.0;  // Nothing may be disabled.
  MitigationSimulation sim(topo, config);

  common::Rng rng(10);
  faults::FaultFactory factory(topo, {}, rng);
  trace::TraceEvent event;
  event.time = common::kDay;
  event.fault = factory.make_fault(
      common::LinkId(0), faults::RootCause::kBadOrLooseTransceiver,
      event.time);
  const double rate = testing::peak_corruption_rate(event.fault);

  const SimulationMetrics metrics = sim.run({event});
  EXPECT_EQ(metrics.tickets_opened, 0u);
  EXPECT_EQ(metrics.undisabled_detections, 1u);
  // Penalty rate = I(f) = f for the remaining 3 days.
  EXPECT_NEAR(metrics.integrated_penalty, rate * 3 * common::kDay,
              rate * common::kDay * 1e-6);
  // Hourly bins sum to the integral.
  double binned = 0.0;
  for (double h : metrics.hourly_penalty) binned += h;
  EXPECT_NEAR(binned, metrics.integrated_penalty, 1e-9);
}

TEST(MitigationSim, FailedRepairTakesTwoRounds) {
  auto topo = topology::build_fat_tree(4);
  ScenarioConfig config;
  config.duration = 10 * common::kDay;
  config.capacity_fraction = 0.5;
  config.outcome.first_attempt_success = 0.0;  // Always fail once.
  MitigationSimulation sim(topo, config);

  common::Rng rng(11);
  faults::FaultFactory factory(topo, {}, rng);
  trace::TraceEvent event;
  event.time = 0;
  event.fault = factory.make_fault(
      common::LinkId(0), faults::RootCause::kConnectorContamination, 0);

  const SimulationMetrics metrics = sim.run({event});
  EXPECT_EQ(metrics.repair_attempts, 2u);
  EXPECT_EQ(metrics.first_attempts, 1u);
  EXPECT_EQ(metrics.first_attempt_successes, 0u);
  EXPECT_EQ(metrics.tickets_opened, 2u);
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

TEST(MitigationSim, ActionModelRepairsViaRecommendation) {
  auto topo = topology::build_fat_tree(8);
  ScenarioConfig config;
  config.duration = 20 * common::kDay;
  config.capacity_fraction = 0.5;
  config.repair_model = RepairModelKind::kAction;
  config.technician_follow_probability = 1.0;
  MitigationSimulation sim(topo, config);

  common::Rng rng(12);
  faults::FaultMixParams mix;
  mix.p_back_reflection = 0.0;
  faults::FaultFactory factory(topo, mix, rng);
  std::vector<trace::TraceEvent> events;
  trace::TraceEvent event;
  event.time = 0;
  event.fault = factory.make_fault(
      common::LinkId(5), faults::RootCause::kConnectorContamination, 0);
  events.push_back(event);

  const SimulationMetrics metrics = sim.run(events);
  // Clean recommendation fixes contamination on the first visit.
  EXPECT_EQ(metrics.repair_attempts, 1u);
  EXPECT_EQ(metrics.first_attempt_successes, 1u);
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

TEST(MitigationSim, SharedFaultRepairSilencesPeers) {
  auto topo = topology::build_fat_tree(8);
  ScenarioConfig config;
  config.duration = 30 * common::kDay;
  config.capacity_fraction = 0.25;
  config.outcome.first_attempt_success = 1.0;
  MitigationSimulation sim(topo, config);

  common::Rng rng(13);
  faults::FaultFactory factory(topo, {}, rng);
  trace::TraceEvent event;
  event.time = 0;
  event.fault = factory.make_fault(
      topo.switch_at(topo.tors().front()).uplinks[0],
      faults::RootCause::kSharedComponent, 0);
  const std::size_t width = event.fault.links.size();
  ASSERT_GT(width, 1u);

  const SimulationMetrics metrics = sim.run({event});
  EXPECT_EQ(metrics.faults_injected, 1u);
  EXPECT_EQ(metrics.tickets_opened, width);
  // Every link is healthy and enabled by the end.
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
  EXPECT_DOUBLE_EQ(metrics.penalty_series.back().value, 0.0);
}

TEST(MitigationSim, CorrOptNeverViolatesCapacity) {
  auto topo = topology::build_fat_tree(8);
  ScenarioConfig config;
  config.duration = 60 * common::kDay;
  config.capacity_fraction = 0.75;
  config.seed = 14;
  const auto events = make_trace(topo, 0.002, config.duration, 15);
  ASSERT_GT(events.size(), 10u);
  MitigationSimulation sim(topo, config);
  const SimulationMetrics metrics = sim.run(events);
  for (const TimePoint& p : metrics.worst_tor_fraction) {
    EXPECT_GE(p.value, 0.75 - 1e-9) << "at t=" << p.time;
  }
  EXPECT_GT(metrics.tickets_opened, 0u);
}

TEST(MitigationSim, CorrOptBeatsSwitchLocalOnPenalty) {
  // The headline result (Figure 14): under a 75% constraint CorrOpt's
  // integrated penalty is far below switch-local's.
  const auto events_seed = 16;
  double integrated[2] = {0.0, 0.0};
  const core::CheckerMode modes[2] = {core::CheckerMode::kSwitchLocal,
                                      core::CheckerMode::kCorrOpt};
  for (int i = 0; i < 2; ++i) {
    auto topo = topology::build_fat_tree(8);
    ScenarioConfig config;
    config.duration = 60 * common::kDay;
    config.capacity_fraction = 0.75;
    config.mode = modes[i];
    config.seed = 17;
    const auto events = make_trace(topo, 0.004, config.duration,
                                   events_seed);
    MitigationSimulation sim(topo, config);
    integrated[i] = sim.run(events).integrated_penalty;
  }
  EXPECT_LT(integrated[1], integrated[0] * 0.5)
      << "CorrOpt should cut corruption losses by far more than 2x";
}

TEST(MitigationSim, PenaltySeriesIsConsistent) {
  auto topo = topology::build_fat_tree(8);
  ScenarioConfig config;
  config.duration = 30 * common::kDay;
  config.capacity_fraction = 0.75;
  config.seed = 18;
  const auto events = make_trace(topo, 0.003, config.duration, 19);
  MitigationSimulation sim(topo, config);
  const SimulationMetrics metrics = sim.run(events);

  // Re-integrate the step series and compare against the accumulator.
  double integral = 0.0;
  for (std::size_t i = 1; i < metrics.penalty_series.size(); ++i) {
    integral += metrics.penalty_series[i - 1].value *
                static_cast<double>(metrics.penalty_series[i].time -
                                    metrics.penalty_series[i - 1].time);
  }
  integral += metrics.penalty_series.back().value *
              static_cast<double>(config.duration -
                                  metrics.penalty_series.back().time);
  EXPECT_NEAR(integral, metrics.integrated_penalty,
              1e-9 + metrics.integrated_penalty * 1e-9);
}

}  // namespace
}  // namespace corropt::sim
