// CapacitySampler regression (DESIGN.md §10): every hourly sample must
// equal, bit for bit, what a cold PathCounter::up_paths() recount of the
// fabric gives at that instant, whatever the sampler's version-keyed
// cache and the shared live counts did in between. The cases steer link
// state between samples (random flips, a flip undone before the next
// sample), let maintenance collateral take breakout peers down, and
// restore a checkpoint into a dirty simulation whose topology reached
// the checkpoint's state version through different link state.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "corropt/path_counter.h"
#include "sim/mitigation_sim.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::sim {
namespace {

using common::LinkId;
using common::SwitchId;

// Cold reference samples, computed in the sampler's own arithmetic (ToR
// order, one division per ToR) from a fresh counter's full recount.
class ColdSamples {
 public:
  void record(const topology::Topology& topo, SimTime t) {
    const core::PathCounter counter(topo);
    const std::vector<std::uint64_t> counts = counter.up_paths();
    double worst = 1.0;
    double sum = 0.0;
    for (SwitchId tor : topo.tors()) {
      const double design =
          static_cast<double>(counter.design_paths()[tor.index()]);
      const double fraction =
          design == 0.0 ? 1.0
                        : static_cast<double>(counts[tor.index()]) / design;
      worst = std::min(worst, fraction);
      sum += fraction;
    }
    worst_.push_back({t, worst});
    mean_sum_ += sum / static_cast<double>(topo.tors().size());
  }

  // Every sample of `metrics` equals the reference, bit for bit.
  void expect_matches(const SimulationMetrics& metrics) const {
    ASSERT_EQ(metrics.worst_tor_fraction.size(), worst_.size());
    for (std::size_t i = 0; i < worst_.size(); ++i) {
      EXPECT_EQ(metrics.worst_tor_fraction[i].time, worst_[i].time);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    metrics.worst_tor_fraction[i].value),
                std::bit_cast<std::uint64_t>(worst_[i].value))
          << "sample " << i << " at t=" << worst_[i].time << ": "
          << metrics.worst_tor_fraction[i].value << " vs cold "
          << worst_[i].value;
    }
    const double mean = mean_sum_ / static_cast<double>(worst_.size());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(metrics.mean_tor_fraction),
              std::bit_cast<std::uint64_t>(mean))
        << metrics.mean_tor_fraction << " vs cold " << mean;
  }

  [[nodiscard]] std::size_t size() const { return worst_.size(); }

 private:
  std::vector<TimePoint> worst_;
  double mean_sum_ = 0.0;
};

// Steps `sim` to the horizon, calling `before_step` ahead of every step
// and recording a cold reference after every capacity sample: the first
// step landing on a not-yet-sampled multiple of the interval (samples
// hold the lowest same-instant stratum). A sample changes no link state,
// so the state after it is the state it saw.
SimulationMetrics run_checked(MitigationSimulation& sim,
                              const topology::Topology& topo,
                              ColdSamples& cold, SimTime last_sampled,
                              const std::function<void()>& before_step = {}) {
  while (true) {
    if (before_step) before_step();
    if (!sim.step()) break;
    const SimTime t = sim.now();
    if (t % common::kHour == 0 && t != last_sampled) {
      cold.record(topo, t);
      last_sampled = t;
    }
  }
  return sim.finish_run();
}

ScenarioConfig quiet_config(SimDuration duration) {
  ScenarioConfig config;
  config.mode = core::CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.5;
  config.duration = duration;
  config.seed = 7;
  return config;
}

LinkId link_at(std::size_t index) {
  return LinkId(static_cast<LinkId::underlying_type>(index));
}

// Random enable/disable flips between samples, several links at a time.
TEST(CapacitySampler, RandomFlipsMatchColdRecount) {
  topology::Topology topo = topology::build_fat_tree(8);
  const std::vector<trace::TraceEvent> no_faults;
  MitigationSimulation sim(topo, quiet_config(4 * common::kDay));
  ColdSamples cold;
  common::Rng rng(2017);
  sim.begin_run(no_faults);
  const SimulationMetrics metrics = run_checked(sim, topo, cold, -1, [&] {
    const std::size_t flips = rng.uniform_index(4);
    for (std::size_t i = 0; i < flips; ++i) {
      const LinkId link = link_at(rng.uniform_index(topo.link_count()));
      topo.set_enabled(link, !topo.is_enabled(link));
    }
  });
  cold.expect_matches(metrics);
  EXPECT_EQ(cold.size(), 4u * 24u + 1u);
}

// A link disabled and re-enabled between two samples moves the state
// version but leaves the mask as it was: the fold is empty and the
// sample must still equal the cold recount.
TEST(CapacitySampler, DisableReenableBetweenSamplesFoldsNothing) {
  topology::Topology topo = topology::build_fat_tree(4);
  topo.set_enabled(topo.switch_at(topo.tors().front()).uplinks.front(),
                   false);
  const std::vector<trace::TraceEvent> no_faults;
  MitigationSimulation sim(topo, quiet_config(common::kDay));
  ColdSamples cold;
  sim.begin_run(no_faults);
  const std::uint64_t version = topo.state_version();
  std::size_t step = 0;
  const SimulationMetrics metrics = run_checked(sim, topo, cold, -1, [&] {
    const LinkId link = link_at(step++ % topo.link_count());
    topo.set_enabled(link, !topo.is_enabled(link));
    topo.set_enabled(link, !topo.is_enabled(link));
  });
  cold.expect_matches(metrics);
  EXPECT_GT(topo.state_version(), version);
  EXPECT_EQ(metrics.worst_tor_fraction.back().value, 0.5);
}

// Collateral maintenance takes healthy breakout peers down and brings
// them back between samples; the maintenance model's feasibility check
// reads the same live counts as the sampler.
TEST(CapacitySampler, MaintenanceCollateralOnBreakoutPeers) {
  topology::Topology topo = topology::build_fat_tree(4);
  topo.assign_breakout_groups(2, 0);
  topo.assign_breakout_groups(2, 1);
  common::Rng trace_rng(101);
  trace::TraceParams params;
  params.faults_per_link_per_day = 0.5;
  params.duration = 3 * common::kDay;
  const std::vector<trace::TraceEvent> events =
      trace::CorruptionTraceGenerator(topo, params, trace_rng).generate();

  ScenarioConfig config = quiet_config(4 * common::kDay);
  config.detection = DetectionMode::kPolled;
  config.model_collateral_maintenance = true;
  config.account_collateral_repair = true;
  config.outcome.first_attempt_success = 0.6;
  MitigationSimulation sim(topo, config);
  ColdSamples cold;
  sim.begin_run(events);
  const SimulationMetrics metrics = run_checked(sim, topo, cold, -1);
  cold.expect_matches(metrics);
  EXPECT_GT(metrics.maintenance_windows, 0u);
  EXPECT_GT(metrics.collateral_link_seconds, 0.0);
}

// The dirty simulation caches a sample at state version V with one link
// state; the checkpoint it restores carries version V with another. The
// sampler must drop its cache on restore rather than trust the version.
TEST(CapacitySampler, RestoreIntoDirtySimulationWithCollidingVersion) {
  const std::vector<trace::TraceEvent> no_faults;
  const ScenarioConfig config = quiet_config(common::kDay);
  ColdSamples cold;

  // Checkpoint after the t = 0 sample, with one ToR uplink down: that
  // ToR keeps 2 of its 4 paths.
  topology::Topology driver_topo = topology::build_fat_tree(4);
  MitigationSimulation driver(driver_topo, config);
  driver.begin_run(no_faults);
  ASSERT_TRUE(driver.step());
  cold.record(driver_topo, 0);
  driver_topo.set_enabled(
      driver_topo.switch_at(driver_topo.tors().front()).uplinks.front(),
      false);
  const Checkpoint ckpt = driver.snapshot();

  // Dirty mirror: an agg uplink down instead (its two ToRs keep 3 of 4),
  // sampled at the checkpoint's state version.
  topology::Topology mirror_topo = topology::build_fat_tree(4);
  MitigationSimulation mirror(mirror_topo, config);
  mirror.begin_run(no_faults);
  ASSERT_TRUE(mirror.step());
  mirror_topo.set_enabled(
      mirror_topo.switch_at(mirror_topo.switches_at_level(1).front())
          .uplinks.front(),
      false);
  ASSERT_TRUE(mirror.step());
  ASSERT_EQ(mirror.now(), common::kHour);
  ASSERT_EQ(mirror_topo.state_version(), driver_topo.state_version());

  mirror.restore_run(no_faults, ckpt);
  const SimulationMetrics metrics =
      run_checked(mirror, mirror_topo, cold, /*last_sampled=*/0);
  cold.expect_matches(metrics);
  EXPECT_EQ(metrics.worst_tor_fraction[1].value, 0.5);
}

}  // namespace
}  // namespace corropt::sim
