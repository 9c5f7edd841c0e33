#include <gtest/gtest.h>

#include <vector>

#include "corropt/controller.h"
#include "corropt/path_counter.h"
#include "example_topologies.h"
#include "topology/fat_tree.h"

namespace corropt::core {
namespace {

TEST(Controller, DisablesAndTicketsNewCorruption) {
  auto topo = topology::build_fat_tree(4);
  ControllerConfig config;
  config.capacity_fraction = 0.5;
  Controller controller(topo, config);
  std::vector<common::LinkId> tickets;
  controller.set_ticket_callback(
      [&tickets](common::LinkId link) { tickets.push_back(link); });

  const auto link = topo.switch_at(topo.tors().front()).uplinks[0];
  EXPECT_TRUE(controller.on_corruption_detected(link, 1e-4));
  EXPECT_FALSE(topo.is_enabled(link));
  ASSERT_EQ(tickets.size(), 1u);
  EXPECT_EQ(tickets.front(), link);
  EXPECT_EQ(controller.stats().disabled_on_arrival, 1u);
  EXPECT_TRUE(controller.corruption().entries().contains(link));
  EXPECT_DOUBLE_EQ(controller.active_penalty(), 0.0);
}

TEST(Controller, KeepsCorruptingLinkWhenConstrained) {
  auto topo = topology::build_fat_tree(4);
  ControllerConfig config;
  config.capacity_fraction = 1.0;  // Nothing may be disabled.
  Controller controller(topo, config);
  const auto link = topo.switch_at(topo.tors().front()).uplinks[0];
  EXPECT_FALSE(controller.on_corruption_detected(link, 1e-4));
  EXPECT_TRUE(topo.is_enabled(link));
  EXPECT_EQ(controller.stats().tickets_issued, 0u);
  EXPECT_DOUBLE_EQ(controller.active_penalty(), 1e-4);
}

TEST(Controller, RepairEnablesAndOptimizes) {
  // Constraint 50% of 4 paths: one of a ToR's two uplinks may be off.
  auto topo = topology::build_fat_tree(4);
  ControllerConfig config;
  config.capacity_fraction = 0.5;
  Controller controller(topo, config);
  std::vector<common::LinkId> tickets;
  controller.set_ticket_callback(
      [&tickets](common::LinkId link) { tickets.push_back(link); });

  const auto tor = topo.tors().front();
  const auto a = topo.switch_at(tor).uplinks[0];
  const auto b = topo.switch_at(tor).uplinks[1];
  EXPECT_TRUE(controller.on_corruption_detected(a, 1e-4));
  EXPECT_FALSE(controller.on_corruption_detected(b, 1e-3));  // 0 paths left.
  EXPECT_DOUBLE_EQ(controller.active_penalty(), 1e-3);

  // Repairing `a` frees capacity; the optimizer must immediately disable
  // the worse link `b`.
  controller.on_link_repaired(a);
  EXPECT_TRUE(topo.is_enabled(a));
  EXPECT_FALSE(topo.is_enabled(b));
  EXPECT_DOUBLE_EQ(controller.active_penalty(), 0.0);
  ASSERT_EQ(tickets.size(), 2u);
  EXPECT_EQ(tickets[1], b);
  EXPECT_EQ(controller.stats().optimizer_runs, 1u);
  EXPECT_EQ(controller.stats().disabled_on_activation, 1u);
}

TEST(Controller, SwitchLocalModeUsesLocalRule) {
  // On the Figure 10 example with c=60%, switch-local mode lands at 8
  // disabled links (the sub-optimal state of Figure 10(a) arises only
  // with the unsafe sc=c mapping; the controller uses the safe sqrt
  // mapping, so it disables 4).
  testing::Fig10Example ex = testing::make_fig10_example();
  ControllerConfig config;
  config.mode = CheckerMode::kSwitchLocal;
  config.capacity_fraction = 0.6;
  Controller controller(ex.topo, config);
  std::size_t disabled = 0;
  for (common::LinkId link : ex.corrupting) {
    if (controller.on_corruption_detected(link, 1e-3)) ++disabled;
  }
  EXPECT_EQ(disabled, 4u);

  // CorrOpt mode on the same instance disables 12.
  testing::Fig10Example ex2 = testing::make_fig10_example();
  ControllerConfig corropt_config;
  corropt_config.mode = CheckerMode::kCorrOpt;
  corropt_config.capacity_fraction = 0.6;
  Controller corropt(ex2.topo, corropt_config);
  std::size_t corropt_disabled = 0;
  for (common::LinkId link : ex2.corrupting) {
    if (corropt.on_corruption_detected(link, 1e-3)) ++corropt_disabled;
  }
  EXPECT_EQ(corropt_disabled, 12u);
}

TEST(Controller, SwitchLocalRechecksOnRepair) {
  auto topo = topology::build_fat_tree(8);  // 4 uplinks per switch.
  ControllerConfig config;
  config.mode = CheckerMode::kSwitchLocal;
  config.capacity_fraction = 0.5;  // sc = sqrt(0.5) -> budget 1 per switch.
  Controller controller(topo, config);
  const auto tor = topo.tors().front();
  const auto& uplinks = topo.switch_at(tor).uplinks;
  EXPECT_TRUE(controller.on_corruption_detected(uplinks[0], 1e-4));
  EXPECT_FALSE(controller.on_corruption_detected(uplinks[1], 1e-3));
  // Repair of the first link frees the budget; the recheck must now
  // disable the second.
  controller.on_link_repaired(uplinks[0]);
  EXPECT_TRUE(topo.is_enabled(uplinks[0]));
  EXPECT_FALSE(topo.is_enabled(uplinks[1]));
}

TEST(Controller, FastCheckerOnlyModeAlsoRechecks) {
  auto topo = topology::build_fat_tree(4);
  ControllerConfig config;
  config.mode = CheckerMode::kFastCheckerOnly;
  config.capacity_fraction = 0.5;
  Controller controller(topo, config);
  const auto tor = topo.tors().front();
  const auto a = topo.switch_at(tor).uplinks[0];
  const auto b = topo.switch_at(tor).uplinks[1];
  controller.on_corruption_detected(a, 1e-4);
  controller.on_corruption_detected(b, 1e-3);
  EXPECT_TRUE(topo.is_enabled(b));
  controller.on_link_repaired(a);
  EXPECT_FALSE(topo.is_enabled(b));
  EXPECT_EQ(controller.stats().optimizer_runs, 0u);
}

TEST(Controller, FastCheckerRecheckIsDetectionOrdered) {
  // The fast-checker-only baseline re-runs the waiting list in detection
  // order (the naive production recheck): when capacity frees, the
  // OLDEST waiting link is disabled even if a lossier one waits behind
  // it. This is precisely the sub-optimality the optimizer removes.
  auto topo = topology::build_fat_tree(8);  // 4 uplinks, c=0.75 -> 1 slot.
  ControllerConfig config;
  config.mode = CheckerMode::kFastCheckerOnly;
  config.capacity_fraction = 0.75;
  Controller controller(topo, config);
  const auto tor = topo.tors().front();
  const auto& uplinks = topo.switch_at(tor).uplinks;
  EXPECT_TRUE(controller.on_corruption_detected(uplinks[0], 1e-6));
  EXPECT_FALSE(controller.on_corruption_detected(uplinks[1], 1e-5));
  EXPECT_FALSE(controller.on_corruption_detected(uplinks[2], 1e-3));
  controller.on_link_repaired(uplinks[0]);
  EXPECT_FALSE(topo.is_enabled(uplinks[1]))
      << "FIFO recheck disables the oldest waiting link";
  EXPECT_TRUE(topo.is_enabled(uplinks[2]));
}

TEST(Controller, OptimizerPicksWorstWaitingLink) {
  // Same scenario in full CorrOpt mode: the optimizer's global solve
  // spends the freed slot on the lossiest waiting link instead
  // (Figure 18's gain mechanism).
  auto topo = topology::build_fat_tree(8);
  ControllerConfig config;
  config.mode = CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.75;
  Controller controller(topo, config);
  const auto tor = topo.tors().front();
  const auto& uplinks = topo.switch_at(tor).uplinks;
  EXPECT_TRUE(controller.on_corruption_detected(uplinks[0], 1e-6));
  EXPECT_FALSE(controller.on_corruption_detected(uplinks[1], 1e-5));
  EXPECT_FALSE(controller.on_corruption_detected(uplinks[2], 1e-3));
  controller.on_link_repaired(uplinks[0]);
  EXPECT_FALSE(topo.is_enabled(uplinks[2]))
      << "the optimizer disables the lossiest waiting link";
  EXPECT_TRUE(topo.is_enabled(uplinks[1]));
}

TEST(Controller, CorruptionClearedWithoutRepair) {
  auto topo = topology::build_fat_tree(4);
  ControllerConfig config;
  config.capacity_fraction = 1.0;
  Controller controller(topo, config);
  const auto link = topo.switch_at(topo.tors().front()).uplinks[0];
  controller.on_corruption_detected(link, 1e-4);
  EXPECT_GT(controller.active_penalty(), 0.0);
  controller.on_corruption_cleared(link);
  EXPECT_DOUBLE_EQ(controller.active_penalty(), 0.0);
  EXPECT_FALSE(controller.corruption().entries().contains(link));
}

TEST(Controller, ReportOnDisabledLinkIssuesNoDuplicateTicket) {
  auto topo = topology::build_fat_tree(4);
  ControllerConfig config;
  config.capacity_fraction = 0.5;
  Controller controller(topo, config);
  const auto link = topo.switch_at(topo.tors().front()).uplinks[0];
  EXPECT_TRUE(controller.on_corruption_detected(link, 1e-4));
  // A second report for the same (already disabled) link: no new ticket.
  EXPECT_FALSE(controller.on_corruption_detected(link, 2e-4));
  EXPECT_EQ(controller.stats().tickets_issued, 1u);
  // The rate update is retained.
  EXPECT_DOUBLE_EQ(controller.corruption().rate(link), 2e-4);
}

// The fast checker, the optimizer and anybody else who flips a link all
// work on the controller's one PathCounter. After every step its live
// counts must equal a cold recount and the optimizer must agree with a
// fresh one (verify_incremental throws otherwise). A cached segment
// survives flips outside its region, but a fast-checker disable inside
// it must erase the segment: the checker folds its disable into the
// shared counts, so only the optimizer's own mask words still show it.
TEST(Controller, SharedPathCounterFollowsEveryActor) {
  auto topo = topology::build_fat_tree(4);
  ControllerConfig config;
  config.capacity_fraction = 0.75;  // Each ToR needs 3 of its 4 paths.
  config.verify_incremental = true;
  Controller controller(topo, config);
  PathCounter& paths = controller.paths();
  const OptimizerIncrementalStats& stats =
      controller.optimizer().incremental_stats();
  auto expect_counts_exact = [&paths](const char* step) {
    EXPECT_EQ(paths.live_counts(), paths.up_paths()) << step;
  };

  // Pod 0: both uplinks of ToR `tor` corrupt. Either disable would leave
  // it two paths, so both wait as one segment nothing can be cut from.
  const auto tor = topo.tors().front();
  const auto tor_up0 = topo.switch_at(tor).uplinks[0];
  const auto tor_up1 = topo.switch_at(tor).uplinks[1];
  // An agg uplink inside that segment's region, and agg uplinks of two
  // other pods: each costs the ToRs below it one path.
  const auto inner =
      topo.switch_at(topo.link_at(tor_up0).upper).uplinks[0];
  auto agg_uplink_of_tor = [&topo](std::size_t tor_index) {
    const auto up = topo.switch_at(topo.tors()[tor_index]).uplinks[0];
    return topo.switch_at(topo.link_at(up).upper).uplinks[0];
  };
  const auto far = agg_uplink_of_tor(topo.tors().size() - 1);
  const auto actor = agg_uplink_of_tor(2);
  // Flaps `far` through a fast-checker disable and a repair; the repair
  // runs the optimizer.
  auto flap_far = [&] {
    EXPECT_TRUE(controller.on_corruption_detected(far, 1e-4));
    expect_counts_exact("fast-checker disable");
    controller.on_link_repaired(far);
    expect_counts_exact("repair and optimizer run");
  };

  EXPECT_FALSE(controller.on_corruption_detected(tor_up0, 2e-3));
  EXPECT_FALSE(controller.on_corruption_detected(tor_up1, 1e-3));
  expect_counts_exact("refused disables");
  flap_far();
  EXPECT_EQ(stats.segment_solves, 1u);
  EXPECT_EQ(stats.segment_reuses, 0u);

  // Another actor flips a link outside the region: the segment is reused.
  topo.set_enabled(actor, false);
  expect_counts_exact("external disable");
  flap_far();
  EXPECT_EQ(stats.segment_solves, 1u);
  EXPECT_EQ(stats.segment_reuses, 1u);

  // The fast checker disables a link inside the region: solved afresh.
  EXPECT_TRUE(controller.on_corruption_detected(inner, 1e-5));
  expect_counts_exact("fast-checker disable inside the region");
  topo.set_enabled(actor, true);
  expect_counts_exact("external re-enable");
  flap_far();
  EXPECT_EQ(stats.segment_solves, 2u);
  EXPECT_EQ(stats.segment_reuses, 1u);
  EXPECT_TRUE(topo.is_enabled(tor_up0));
  EXPECT_TRUE(topo.is_enabled(tor_up1));
  EXPECT_EQ(controller.stats().optimizer_runs, 3u);
}

}  // namespace
}  // namespace corropt::core
