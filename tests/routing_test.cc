#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "corropt/fast_checker.h"
#include "corropt/routing.h"
#include "topology/fat_tree.h"

namespace corropt::core {
namespace {

TEST(Wcmp, IntactTopologyIsUniformEcmp) {
  const auto topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  const WcmpTable table = compute_wcmp(topo, counter);
  for (const auto& sw : topo.switches()) {
    if (sw.level == topo.top_level()) {
      EXPECT_TRUE(table.weights[sw.id.index()].empty());
      continue;
    }
    ASSERT_EQ(table.weights[sw.id.index()].size(), sw.uplinks.size());
    for (const UplinkWeight& uplink : table.weights[sw.id.index()]) {
      EXPECT_NEAR(uplink.weight, 1.0 / sw.uplinks.size(), 1e-12);
    }
  }
  EXPECT_NEAR(max_link_overload(topo, table), 1.0, 1e-9);
}

TEST(Wcmp, WeightsSumToOneAndSkipDisabledLinks) {
  auto topo = topology::build_fat_tree(8);
  const auto tor = topo.tors().front();
  const auto disabled = topo.switch_at(tor).uplinks[0];
  topo.set_enabled(disabled, false);
  PathCounter counter(topo);
  const WcmpTable table = compute_wcmp(topo, counter);
  EXPECT_DOUBLE_EQ(table.share(topo, disabled), 0.0);
  double sum = 0.0;
  for (const UplinkWeight& uplink : table.weights[tor.index()]) {
    EXPECT_TRUE(topo.is_enabled(uplink.link));
    sum += uplink.weight;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Wcmp, WeightsFollowPathCounts) {
  // Disable one spine uplink of an agg: the agg's subtree thins and the
  // ToR shifts weight away from it, proportionally to path counts.
  auto topo = topology::build_fat_tree(8);  // 4 uplinks each.
  const auto tor = topo.tors().front();
  const auto agg = topo.link_at(topo.switch_at(tor).uplinks[0]).upper;
  topo.set_enabled(topo.switch_at(agg).uplinks[0], false);
  PathCounter counter(topo);
  const WcmpTable table = compute_wcmp(topo, counter);
  // Thin agg has 3 of 4 spine paths; siblings have 4: weights 3/15 vs
  // 4/15.
  const double thin = table.share(topo, topo.switch_at(tor).uplinks[0]);
  const double fat = table.share(topo, topo.switch_at(tor).uplinks[1]);
  EXPECT_NEAR(thin, 3.0 / 15.0, 1e-12);
  EXPECT_NEAR(fat, 4.0 / 15.0, 1e-12);
}

TEST(Wcmp, DeadSubtreeGetsNoTraffic) {
  auto topo = topology::build_fat_tree(4);
  const auto tor = topo.tors().front();
  const auto agg = topo.link_at(topo.switch_at(tor).uplinks[0]).upper;
  for (common::LinkId uplink : topo.switch_at(agg).uplinks) {
    topo.set_enabled(uplink, false);
  }
  PathCounter counter(topo);
  const WcmpTable table = compute_wcmp(topo, counter);
  // The uplink to the dead agg is enabled but carries nothing.
  EXPECT_DOUBLE_EQ(table.share(topo, topo.switch_at(tor).uplinks[0]), 0.0);
  EXPECT_DOUBLE_EQ(table.share(topo, topo.switch_at(tor).uplinks[1]), 1.0);
}

TEST(Wcmp, OverloadBoundedUnderCorrOptDegradation) {
  // Property: after CorrOpt-style disabling at capacity c, WCMP overload
  // stays bounded by roughly 1/c — the capacity constraint is what keeps
  // load balancing sane (Section 8).
  common::Rng rng(21);
  auto topo = topology::build_fat_tree(8);
  CapacityConstraint constraint(0.5);
  PathCounter paths(topo);
  FastChecker checker(topo, paths, constraint);
  for (int i = 0; i < 200; ++i) {
    checker.try_disable(common::LinkId(
        static_cast<common::LinkId::underlying_type>(
            rng.uniform_index(topo.link_count()))));
  }
  PathCounter counter(topo);
  const WcmpTable table = compute_wcmp(topo, counter);
  const double overload = max_link_overload(topo, table);
  EXPECT_GE(overload, 1.0);
  EXPECT_LE(overload, 1.0 / 0.5 + 2.0)
      << "pathological overload despite the capacity constraint";
}

TEST(Wcmp, ShareOfUnknownLinkIsZero) {
  const auto topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  const WcmpTable table = compute_wcmp(topo, counter);
  // A downlink is not an uplink of its lower switch; share is 0... use a
  // spine switch which has no uplinks at all.
  const auto spine = topo.switches_at_level(2).front();
  EXPECT_TRUE(table.weights[spine.index()].empty());
}

}  // namespace
}  // namespace corropt::core
