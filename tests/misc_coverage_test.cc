// Assorted behaviours not covered by the per-module suites: logging,
// deep-topology switch-local mapping, recommendation threshold edges,
// controller statistics, and fault-model contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "corropt/controller.h"
#include "corropt/recommendation.h"
#include "corropt/switch_local.h"
#include "fault_oracles.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "telemetry/network_state.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt {
namespace {

TEST(Logging, WarningsAndErrorsKeepTheirPrefix) {
  // perfbench counts greedy-fallback warnings on stderr by their text.
  ::testing::internal::CaptureStderr();
  CORROPT_LOG_WARNING << "visible " << 42;
  CORROPT_LOG_ERROR << "also visible";
  const std::string output = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(output, "[WARN] visible 42\n[ERROR] also visible\n");
}

TEST(SwitchLocalDeep, ForCapacityUsesTopologyDepth) {
  topology::XgftSpec spec;
  spec.children_per_node = {2, 2, 2};
  spec.parents_per_node = {4, 4, 4};
  auto topo = topology::build_xgft(spec);  // 3 tiers above the ToRs.
  const double sc = core::switch_local_threshold(0.5, topo.top_level());
  EXPECT_NEAR(sc, std::cbrt(0.5), 1e-12);
  const core::SwitchLocalChecker checker(topo, sc);
  // budget = 4 - ceil(4 * 0.7937) = 0: the deep-topology collapse.
  EXPECT_EQ(checker.disable_budget(topo.tors().front()), 0);
}

TEST(RecommendationEdges, ThresholdBoundariesFollowAlgorithm1) {
  // Tx exactly AT PowerThreshTx counts as low (Algorithm 1 uses <=);
  // Rx exactly AT PowerThreshRx counts as high (it uses <).
  const auto topo = topology::build_fat_tree(4);
  telemetry::NetworkState state(topo, telemetry::default_tech());
  const auto& tech = state.tech();
  core::RecommendationEngine engine(state);
  const common::LinkId link(0);
  const auto up = topology::direction_id(link, topology::LinkDirection::kUp);

  // Corrupting up direction, transmitter exactly at the Tx threshold.
  state.direction(up).corruption_rate = 1e-4;
  state.direction(up).tx_power_dbm = tech.tx_threshold_dbm;
  EXPECT_EQ(engine.recommend(up, false).action,
            faults::RepairAction::kReplaceRemoteTransceiver);

  // Healthy Tx, Rx exactly at the Rx threshold: NOT low, so the healthy-
  // optics branch (reseat) applies.
  state.direction(up).tx_power_dbm = tech.nominal_tx_dbm;
  state.direction(up).extra_attenuation_db =
      tech.nominal_tx_dbm - tech.nominal_path_loss_db -
      tech.rx_threshold_dbm;
  ASSERT_DOUBLE_EQ(state.rx_power_dbm(up), tech.rx_threshold_dbm);
  EXPECT_EQ(engine.recommend(up, false).action,
            faults::RepairAction::kReseatTransceiver);

  // One hundredth of a dB below: low, clean the fiber.
  state.direction(up).extra_attenuation_db += 0.01;
  EXPECT_EQ(engine.recommend(up, false).action,
            faults::RepairAction::kCleanFiber);
}

TEST(ControllerStats, CountersAddUp) {
  auto topo = topology::build_fat_tree(8);
  core::ControllerConfig config;
  config.capacity_fraction = 0.75;  // 1 ToR uplink may go per ToR.
  core::Controller controller(topo, config);
  const auto tor = topo.tors().front();
  const auto& uplinks = topo.switch_at(tor).uplinks;
  EXPECT_TRUE(controller.on_corruption_detected(uplinks[0], 1e-4));
  EXPECT_FALSE(controller.on_corruption_detected(uplinks[1], 1e-3));
  controller.on_link_repaired(uplinks[0]);  // Optimizer grabs uplinks[1].

  const core::Controller::Stats& stats = controller.stats();
  EXPECT_EQ(stats.corruption_reports, 2u);
  EXPECT_EQ(stats.disabled_on_arrival, 1u);
  EXPECT_EQ(stats.disabled_on_activation, 1u);
  EXPECT_EQ(stats.optimizer_runs, 1u);
  EXPECT_EQ(stats.tickets_issued,
            stats.disabled_on_arrival + stats.disabled_on_activation);
}

TEST(FaultContracts, EveryCauseProducesWellFormedFaults) {
  const auto topo = topology::build_fat_tree(8);
  common::Rng rng(9);
  faults::FaultFactory factory(topo, {}, rng);
  for (const faults::RootCause cause : faults::kAllRootCauses) {
    for (int trial = 0; trial < 50; ++trial) {
      const common::LinkId link(static_cast<common::LinkId::underlying_type>(
          rng.uniform_index(topo.link_count())));
      const faults::Fault fault = factory.make_fault(link, cause, 17);
      EXPECT_EQ(fault.cause, cause);
      EXPECT_EQ(fault.onset, 17);
      EXPECT_FALSE(fault.links.empty());
      EXPECT_FALSE(fault.effects.empty());
      EXPECT_FALSE(fault.fixing_actions.empty());
      EXPECT_GT(testing::peak_corruption_rate(fault), 0.0);
      // Every effect targets a direction of an affected link.
      for (const faults::DirectionEffect& effect : fault.effects) {
        const common::LinkId target = topology::link_of(effect.direction);
        EXPECT_NE(std::find(fault.links.begin(), fault.links.end(), target),
                  fault.links.end());
        EXPECT_GE(effect.corruption_rate, 0.0);
        EXPECT_LE(effect.corruption_rate, 2e-2 * 1.25);
      }
      // The primary link is always affected.
      EXPECT_NE(std::find(fault.links.begin(), fault.links.end(), link),
                fault.links.end());
    }
  }
}

TEST(FaultContracts, FixingActionsMatchRootCause) {
  const auto topo = topology::build_fat_tree(4);
  common::Rng rng(10);
  faults::FaultFactory factory(topo, {}, rng);
  using faults::RepairAction;
  using faults::RootCause;
  auto fixes = [&](RootCause cause, RepairAction action) {
    return factory.make_fault(common::LinkId(0), cause, 0).fixed_by(action);
  };
  EXPECT_TRUE(fixes(RootCause::kConnectorContamination,
                    RepairAction::kCleanFiber));
  EXPECT_TRUE(fixes(RootCause::kConnectorContamination,
                    RepairAction::kReplaceFiber));
  EXPECT_FALSE(fixes(RootCause::kConnectorContamination,
                     RepairAction::kReseatTransceiver));
  EXPECT_TRUE(fixes(RootCause::kDamagedFiber, RepairAction::kReplaceFiber));
  EXPECT_FALSE(fixes(RootCause::kDamagedFiber, RepairAction::kCleanFiber));
  EXPECT_TRUE(fixes(RootCause::kDecayingTransmitter,
                    RepairAction::kReplaceRemoteTransceiver));
  // The factory draws loose or bad itself: both variants occur, a loose
  // transceiver is fixed by a reseat or a replacement, a bad one only by
  // a replacement.
  const testing::TransceiverVariants transceivers =
      testing::draw_transceiver_variants(factory, common::LinkId(0), 0);
  ASSERT_TRUE(transceivers.loose.has_value());
  ASSERT_TRUE(transceivers.bad.has_value());
  EXPECT_TRUE(transceivers.loose->fixed_by(RepairAction::kReseatTransceiver));
  EXPECT_TRUE(transceivers.loose->fixed_by(RepairAction::kReplaceTransceiver));
  EXPECT_FALSE(transceivers.bad->fixed_by(RepairAction::kReseatTransceiver));
  EXPECT_TRUE(transceivers.bad->fixed_by(RepairAction::kReplaceTransceiver));
  EXPECT_TRUE(fixes(RootCause::kSharedComponent,
                    RepairAction::kReplaceSharedComponent));
  EXPECT_FALSE(fixes(RootCause::kSharedComponent,
                     RepairAction::kReplaceTransceiver));
}

TEST(CorruptionSetPenalty, OnlyEnabledLinksCount) {
  auto topo = topology::build_fat_tree(4);
  core::CorruptionSet set;
  set.mark(common::LinkId(0), 1e-3);
  set.mark(common::LinkId(1), 1e-4);
  const auto penalty = core::PenaltyFunction::linear();
  EXPECT_NEAR(set.total_active_penalty(topo, penalty), 1.1e-3, 1e-15);
  topo.set_enabled(common::LinkId(0), false);
  EXPECT_NEAR(set.total_active_penalty(topo, penalty), 1e-4, 1e-15);
  set.unmark(common::LinkId(1));
  EXPECT_DOUBLE_EQ(set.total_active_penalty(topo, penalty), 0.0);
}

// rate() reads a dense per-link array that mark/unmark write and a
// restore rebuilds; it must always equal the entry's rate, and 0 for an
// unmarked link or an id past every mark. active() filters an id-ordered
// vector of the marked links kept beside it, and total_active_penalty
// folds over that vector: on a fabric with every link enabled the
// vector shows whole, and must be the map's keys, with the fold equal
// bit for bit to one over the map.
TEST(CorruptionSet, RateArrayMatchesEntries) {
  using common::LinkId;
  auto link_id = [](std::size_t i) {
    return LinkId(static_cast<LinkId::underlying_type>(i));
  };
  const topology::Topology topo = topology::build_fat_tree(12);
  const auto penalty = core::PenaltyFunction::tcp_throughput();
  std::size_t past_every_mark = 0;
  auto check = [&](const core::CorruptionSet& set, const char* when) {
    for (std::size_t i = 0; i < past_every_mark + 64; ++i) {
      const auto it = set.entries().find(link_id(i));
      EXPECT_EQ(set.rate(link_id(i)),
                it == set.entries().end() ? 0.0 : it->second.rate)
          << when << ", link " << i;
    }
    EXPECT_EQ(set.rate(link_id(std::size_t{1} << 24)), 0.0) << when;
    ASSERT_LT(past_every_mark, topo.link_count());
    std::vector<LinkId> keys;
    double total = 0.0;
    for (const auto& [link, entry] : set.entries()) {
      keys.push_back(link);
      total += penalty(entry.rate);
    }
    std::vector<LinkId> active = {link_id(7)};  // Stale: overwritten.
    set.active(topo, active);
    EXPECT_EQ(active, keys) << when;
    EXPECT_EQ(set.total_active_penalty(topo, penalty), total) << when;
  };
  common::Rng rng(2027);
  core::CorruptionSet set;
  for (int step = 0; step < 600; ++step) {
    const std::size_t i = rng.uniform_index(240);
    if (rng.bernoulli(0.6)) {
      // Often a re-mark: 240 ids, 600 steps.
      set.mark(link_id(i), rng.uniform(1e-8, 1e-2));
    } else {
      set.unmark(link_id(i));
    }
    past_every_mark = std::max(past_every_mark, i + 1);
    if (step % 25 == 0) check(set, "live");
  }
  ASSERT_GT(set.size(), 0u);
  check(set, "live");

  common::snap::Writer w;
  set.snapshot_to(w);
  const std::string bytes = w.take();
  // A set with a mark the snapshot lacks, past every mark of `set`.
  core::CorruptionSet restored;
  restored.mark(link_id(past_every_mark + 100), 0.5);
  common::snap::Reader r(bytes);
  restored.restore_from(r, topo.link_count());
  past_every_mark += 101;
  check(restored, "restored");
  EXPECT_EQ(restored.entries().size(), set.size());
}

TEST(TopologyVersion, BumpsOnEffectiveChangesOnly) {
  auto topo = topology::build_fat_tree(4);
  const auto v0 = topo.state_version();
  topo.set_enabled(common::LinkId(0), true);  // Already enabled: no-op.
  EXPECT_EQ(topo.state_version(), v0);
  topo.set_enabled(common::LinkId(0), false);
  EXPECT_EQ(topo.state_version(), v0 + 1);
  topo.set_enabled(common::LinkId(0), false);  // No-op again.
  EXPECT_EQ(topo.state_version(), v0 + 1);
  topo.set_enabled(common::LinkId(0), true);
  EXPECT_EQ(topo.state_version(), v0 + 2);
}

}  // namespace
}  // namespace corropt
