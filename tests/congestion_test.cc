#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "congestion/congestion_model.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "topology/fat_tree.h"

namespace corropt::congestion {
namespace {

TEST(Congestion, UtilizationBoundedAndDeterministic) {
  const auto topo = topology::build_fat_tree(4);
  common::Rng rng(1);
  CongestionModel model(topo, rng);
  const DirectionId dir(0);
  for (common::SimTime t = 0; t < common::kDay; t += common::kPollInterval) {
    const double u = model.utilization(dir, t);
    EXPECT_GE(u, 0.02);
    EXPECT_LE(u, 0.98);
    EXPECT_DOUBLE_EQ(u, model.utilization(dir, t)) << "same (dir, t) input";
  }
}

TEST(Congestion, LossZeroBelowKnee) {
  const auto topo = topology::build_fat_tree(4);
  common::Rng rng(2);
  CongestionModel model(topo, rng);
  EXPECT_DOUBLE_EQ(
      model.loss_rate(DirectionId(0), CongestionModel::kKneeUtilization, 0),
      0.0);
  EXPECT_DOUBLE_EQ(model.loss_rate(DirectionId(0), 0.1, 0), 0.0);
  EXPECT_GT(model.loss_rate(DirectionId(0), 0.95, 0), 0.0);
}

TEST(Congestion, LossGrowsWithUtilizationOnAverage) {
  const auto topo = topology::build_fat_tree(4);
  common::Rng rng(3);
  CongestionModel model(topo, rng);
  double lo = 0.0, hi = 0.0;
  int samples = 0;
  for (common::SimTime t = 0; t < common::kWeek;
       t += common::kPollInterval) {
    lo += model.loss_rate(DirectionId(0), 0.7, t);
    hi += model.loss_rate(DirectionId(0), 0.95, t);
    ++samples;
  }
  EXPECT_GT(hi / samples, lo / samples * 3.0);
}

TEST(Congestion, HotspotLinksRunHotter) {
  const auto topo = topology::build_fat_tree(8);
  common::Rng rng(4);
  CongestionModel model(topo, rng);
  stats::RunningStats hot, cold;
  std::size_t hot_directions = 0;
  for (std::size_t i = 0; i < topo.direction_count(); ++i) {
    const DirectionId dir(static_cast<common::DirectionId::underlying_type>(i));
    hot_directions += model.is_hot(dir) ? 1 : 0;
    auto& bucket = model.is_hot(dir) ? hot : cold;
    for (common::SimTime t = 0; t < common::kDay; t += 6 * common::kHour) {
      bucket.add(model.utilization(dir, t));
    }
  }
  ASSERT_GT(hot_directions, 0u);
  ASSERT_LT(hot_directions, topo.direction_count());
  EXPECT_GT(hot.mean(), cold.mean() + 0.2);
}

TEST(Congestion, UtilizationLossCorrelationIsPositive) {
  // The defining congestion property from Figure 3: loss correlates with
  // utilization on congested links.
  const auto topo = topology::build_fat_tree(8);
  common::Rng rng(5);
  CongestionModel model(topo, rng);
  stats::PearsonAccumulator acc;
  for (std::size_t i = 0; i < topo.direction_count(); ++i) {
    const DirectionId dir(static_cast<common::DirectionId::underlying_type>(i));
    if (!model.is_hot(dir)) continue;
    for (common::SimTime t = 0; t < common::kWeek;
         t += common::kPollInterval) {
      const double u = model.utilization(dir, t);
      const double loss = model.loss_rate(dir, u, t);
      acc.add(u, std::log10(std::max(loss, 1e-10)));
    }
  }
  EXPECT_GT(acc.correlation(), 0.4);
}

// True when the link runs hot in either direction.
bool link_is_hot(const CongestionModel& model, common::LinkId link) {
  using topology::LinkDirection;
  return model.is_hot(topology::direction_id(link, LinkDirection::kUp)) ||
         model.is_hot(topology::direction_id(link, LinkDirection::kDown));
}

// True when every link incident to `sw` runs hot.
bool switch_is_hot(const CongestionModel& model, const topology::Switch& sw) {
  for (const auto& list : {sw.uplinks, sw.downlinks}) {
    for (common::LinkId link : list) {
      if (!link_is_hot(model, link)) return false;
    }
  }
  return !sw.uplinks.empty() || !sw.downlinks.empty();
}

// True when the link lies inside a hot pod, which heats it regardless of
// any scattered hotspot switch.
bool in_hot_pod(const CongestionModel& model, const topology::Topology& topo,
                const topology::Link& link) {
  const int pod = topo.switch_at(link.lower).pod;
  return pod >= 0 && pod == topo.switch_at(link.upper).pod &&
         model.is_hot_pod(pod);
}

TEST(Congestion, HotspotsClusterOnSwitches) {
  // Large enough that the scattered hotspot fraction draws a few
  // switches.
  const auto topo = topology::build_fat_tree(16);
  common::Rng rng(6);
  CongestionModel model(topo, rng);
  // Outside the hot pods, only hotspot switches heat links: a hot switch
  // there has every incident link hot, so congestion has strong spatial
  // locality by construction.
  std::size_t hot_links = 0, hot_switches = 0;
  for (const auto& sw : topo.switches()) {
    if (!model.is_hot_pod(sw.pod) && switch_is_hot(model, sw)) {
      ++hot_switches;
    }
  }
  for (const auto& link : topo.links()) {
    if (!in_hot_pod(model, topo, link) && link_is_hot(model, link.id)) {
      ++hot_links;
    }
  }
  ASSERT_GT(hot_switches, 0u);
  // Hot links outnumber hot switches by roughly the switch radix.
  EXPECT_GT(hot_links, hot_switches * 3);
}

}  // namespace
}  // namespace corropt::congestion
