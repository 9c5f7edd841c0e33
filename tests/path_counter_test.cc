#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "corropt/capacity.h"
#include "corropt/path_counter.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt::core {
namespace {

using topology::Topology;
using topology::XgftSpec;

TEST(PathCounter, FatTreeDesignPaths) {
  // k=4 fat-tree: each ToR reaches the spine via 2 aggs x 2 spines.
  const Topology topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  for (common::SwitchId tor : topo.tors()) {
    EXPECT_EQ(counter.design_paths()[tor.index()], 4u);
  }
  for (common::SwitchId agg : topo.switches_at_level(1)) {
    EXPECT_EQ(counter.design_paths()[agg.index()], 2u);
  }
}

TEST(PathCounter, DisabledLinksReduceCounts) {
  Topology topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  const common::SwitchId tor = topo.tors().front();
  const common::LinkId uplink = topo.switch_at(tor).uplinks.front();
  topo.set_enabled(uplink, false);
  const auto counts = counter.up_paths();
  EXPECT_EQ(counts[tor.index()], 2u);
  // Design counts are unaffected by administrative state.
  EXPECT_EQ(counter.design_paths()[tor.index()], 4u);
}

TEST(PathCounter, MaskActsLikeRemoval) {
  Topology topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  const common::SwitchId tor = topo.tors().front();
  LinkMask mask(topo.link_count());
  mask.set(topo.switch_at(tor).uplinks.front().index());
  const auto masked = counter.up_paths(&mask);
  EXPECT_EQ(masked[tor.index()], 2u);
  // The mask must not mutate the topology.
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

class PathCounterRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(PathCounterRandomTest, SweepMatchesBruteForce) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Random small XGFT with random disabled links and a random mask.
  XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
    spec.parents_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
  }
  Topology topo = topology::build_xgft(spec);
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    if (rng.bernoulli(0.2)) {
      topo.set_enabled(common::LinkId(
                           static_cast<common::LinkId::underlying_type>(i)),
                       false);
    }
  }
  LinkMask mask(topo.link_count());
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    mask.set(i, rng.bernoulli(0.1));
  }

  PathCounter counter(topo);
  const auto swept = counter.up_paths(&mask);
  for (common::SwitchId tor : topo.tors()) {
    EXPECT_EQ(swept[tor.index()],
              count_paths_brute_force(topo, tor, &mask))
        << "seed " << GetParam() << " tor " << tor.value();
  }
  // Design paths: brute force with everything enabled.
  Topology pristine = topology::build_xgft(spec);
  for (common::SwitchId tor : pristine.tors()) {
    EXPECT_EQ(counter.design_paths()[tor.index()],
              count_paths_brute_force(pristine, tor));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, PathCounterRandomTest,
                         ::testing::Range(0, 25));

class IncrementalSweepRandomTest : public ::testing::TestWithParam<int> {};

// The incremental closure recount and the fused violated-ToR variant
// must agree with a full masked sweep on random topologies, disabled
// sets, and masks.
TEST_P(IncrementalSweepRandomTest, MatchesFullMaskedSweep) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
    spec.parents_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
  }
  Topology topo = topology::build_xgft(spec);
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    if (rng.bernoulli(0.15)) {
      topo.set_enabled(common::LinkId(
                           static_cast<common::LinkId::underlying_type>(i)),
                       false);
    }
  }
  LinkMask mask(topo.link_count());
  std::vector<common::LinkId> masked_links;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    if (rng.bernoulli(0.15)) {
      mask.set(i);
      masked_links.push_back(common::LinkId(
          static_cast<common::LinkId::underlying_type>(i)));
    }
  }

  PathCounter counter(topo);
  const CapacityConstraint constraint(rng.uniform(0.4, 0.9));
  const std::vector<std::uint64_t> baseline = counter.up_paths();
  const std::vector<common::SwitchId> baseline_violated =
      counter.violated_tors(baseline, constraint);
  const std::vector<std::uint64_t> full = counter.up_paths(&mask);

  PathCounter::SweepScratch scratch;
  std::vector<std::uint64_t> incremental;
  counter.up_paths_masked_from_baseline(incremental, baseline, mask,
                                        masked_links, scratch);
  EXPECT_EQ(incremental, full) << "seed " << GetParam();

  std::vector<common::SwitchId> violated;
  std::vector<std::uint64_t> counts;
  counter.masked_violated_tors_into(violated, baseline, baseline_violated,
                                    mask, masked_links, constraint, counts,
                                    scratch);
  EXPECT_EQ(violated, counter.violated_tors(full, constraint))
      << "seed " << GetParam();
  EXPECT_EQ(counts, full);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, IncrementalSweepRandomTest,
                         ::testing::Range(0, 25));

class RefreshAfterChangesRandomTest : public ::testing::TestWithParam<int> {};

// The in-place delta recount behind every live count cache must agree
// with a fresh full sweep after arbitrary enable/disable flips.
TEST_P(RefreshAfterChangesRandomTest, MatchesFullResweep) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
    spec.parents_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
  }
  Topology topo = topology::build_xgft(spec);
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    if (rng.bernoulli(0.1)) {
      topo.set_enabled(common::LinkId(
                           static_cast<common::LinkId::underlying_type>(i)),
                       false);
    }
  }
  PathCounter counter(topo);
  std::vector<std::uint64_t> counts = counter.up_paths();
  PathCounter::SweepScratch scratch;

  // Several rounds of random flips, each folded in with a delta recount.
  for (int round = 0; round < 4; ++round) {
    std::vector<common::LinkId> changed;
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      if (rng.bernoulli(0.12)) {
        const common::LinkId link(
            static_cast<common::LinkId::underlying_type>(i));
        topo.set_enabled(link, !topo.is_enabled(link));
        changed.push_back(link);
      }
    }
    counter.refresh_counts_after_changes(counts, changed, scratch);
    EXPECT_EQ(counts, counter.up_paths())
        << "seed " << GetParam() << " round " << round;
  }
}

// The live-count cache finds its changed links itself, from the enabled
// mask: after any flips (including flips undone before the sync) it must
// equal a fresh full sweep, and `changed` must list exactly the links
// whose state differs from the previous sync (none after a cold fill).
TEST_P(RefreshAfterChangesRandomTest, LiveCountsFollowEnabledMask) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(4)));
    spec.parents_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
  }
  Topology topo = topology::build_xgft(spec);
  PathCounter counter(topo);
  PathCounter::LiveCounts live;
  EXPECT_EQ(counter.sync_live_counts(live), counter.up_paths());
  for (int round = 0; round < 6; ++round) {
    const LinkMask before = topo.enabled_mask();
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      const common::LinkId link(
          static_cast<common::LinkId::underlying_type>(i));
      if (rng.bernoulli(0.1)) topo.set_enabled(link, !topo.is_enabled(link));
      if (rng.bernoulli(0.05)) {
        topo.set_enabled(link, !topo.is_enabled(link));
        topo.set_enabled(link, !topo.is_enabled(link));
      }
    }
    EXPECT_EQ(counter.sync_live_counts(live), counter.up_paths())
        << "seed " << GetParam() << " round " << round;
    std::vector<common::LinkId> flipped;
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      if (before.test(i) != topo.enabled_mask().test(i)) {
        flipped.push_back(common::LinkId(
            static_cast<common::LinkId::underlying_type>(i)));
      }
    }
    EXPECT_EQ(live.changed, flipped)
        << "seed " << GetParam() << " round " << round;
  }
  live.counts.clear();
  EXPECT_EQ(counter.sync_live_counts(live), counter.up_paths());
  EXPECT_TRUE(live.changed.empty());
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, RefreshAfterChangesRandomTest,
                         ::testing::Range(0, 25));

TEST(PathCounter, ViolatedTorsRespectConstraint) {
  Topology topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  CapacityConstraint constraint(0.75);  // 3 of 4 paths required.
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));

  const common::SwitchId tor = topo.tors().front();
  topo.set_enabled(topo.switch_at(tor).uplinks.front(), false);
  const auto counts = counter.up_paths();
  const auto violated = counter.violated_tors(counts, constraint);
  ASSERT_EQ(violated.size(), 1u);  // 2/4 < 0.75 for this ToR only.
  EXPECT_EQ(violated.front(), tor);
  EXPECT_FALSE(counter.feasible(counts, constraint));
}

TEST(PathCounter, PerTorOverridesApply) {
  Topology topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  CapacityConstraint constraint(0.25);
  const common::SwitchId strict_tor = topo.tors().back();
  constraint.set_tor_fraction(strict_tor, 1.0);
  topo.set_enabled(topo.switch_at(strict_tor).uplinks.front(), false);
  const auto violated = counter.violated_tors(counter.up_paths(), constraint);
  ASSERT_EQ(violated.size(), 1u);
  EXPECT_EQ(violated.front(), strict_tor);
}

TEST(CapacityConstraint, MinPathsRoundsCorrectly) {
  CapacityConstraint c(0.6);
  // 0.6 * 25 = 15 exactly: must not round to 16.
  EXPECT_EQ(c.min_paths(common::SwitchId(0), 25), 15u);
  // 0.6 * 26 = 15.6: rounds up.
  EXPECT_EQ(c.min_paths(common::SwitchId(0), 26), 16u);
  CapacityConstraint half(0.5);
  EXPECT_EQ(half.min_paths(common::SwitchId(0), 4), 2u);
  CapacityConstraint full(1.0);
  EXPECT_EQ(full.min_paths(common::SwitchId(0), 7), 7u);
  CapacityConstraint none(0.0);
  EXPECT_EQ(none.min_paths(common::SwitchId(0), 7), 0u);
}

TEST(PathCounter, UpstreamLinksClosure) {
  const Topology topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  const common::SwitchId tor = topo.tors().front();
  const LinkMask mask = counter.upstream_links({&tor, 1});
  // Closure: the ToR's 2 uplinks + its 2 aggs' 2 uplinks each = 6 links.
  EXPECT_EQ(mask.popcount(), 6u);
  // Every uplink of the ToR is included.
  for (common::LinkId id : topo.switch_at(tor).uplinks) {
    EXPECT_TRUE(mask.test(id.index()));
  }
  // No downlink of another pod's ToR is included.
  const common::SwitchId other = topo.tors().back();
  for (common::LinkId id : topo.switch_at(other).uplinks) {
    EXPECT_FALSE(mask.test(id.index()));
  }
}

TEST(PathCounter, UpstreamIncludesDisabledLinks) {
  Topology topo = topology::build_fat_tree(4);
  const common::SwitchId tor = topo.tors().front();
  const common::LinkId uplink = topo.switch_at(tor).uplinks.front();
  topo.set_enabled(uplink, false);
  PathCounter counter(topo);
  const LinkMask mask = counter.upstream_links({&tor, 1});
  EXPECT_TRUE(mask.test(uplink.index()))
      << "disabled links still belong to the pruned sub-topology";
}

}  // namespace
}  // namespace corropt::core
