#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "corropt/capacity.h"
#include "corropt/path_counter.h"
#include "optimizer_oracles.h"
#include "path_oracles.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt::core {
namespace {

using testing::count_paths_brute_force;
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

// The fused incremental closure recount behind the optimizer's pruning
// pass must agree with a full masked sweep on random topologies,
// disabled sets, and masks: both its counts and its violated ToRs.
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
  const std::vector<std::uint64_t> baseline = counter.live_counts();
  const std::vector<common::SwitchId> baseline_violated =
      counter.violated_tors(baseline, constraint);
  const std::vector<std::uint64_t> full = counter.up_paths(&mask);
  const std::vector<std::uint64_t> required =
      counter.required_paths(constraint);

  // The copying oracle recounts into its own array, which must end as
  // the full masked sweep.
  std::vector<std::uint64_t> counts;
  EXPECT_EQ(testing::masked_violated_tors_copying(counter, baseline,
                                                  baseline_violated, mask,
                                                  masked_links, required,
                                                  counts),
            counter.violated_tors(full, constraint))
      << "seed " << GetParam();
  EXPECT_EQ(counts, full) << "seed " << GetParam();

  // The pass in the live counts finds the same ToRs and undoes itself.
  std::vector<common::SwitchId> violated;
  counter.masked_violated_tors(violated, baseline_violated, mask,
                               masked_links, required);
  EXPECT_EQ(violated, counter.violated_tors(full, constraint))
      << "seed " << GetParam();
  EXPECT_EQ(counter.live_counts(), baseline) << "seed " << GetParam();
}

// The in-place pass against the copying oracle on the fabrics the
// optimizer meets: seeded masks of every density on the medium DCN and
// on a breakout XGFT, partly disabled, one PathCounter throughout. Each
// pass must return the oracle's ToRs and leave the live counts bit for
// bit as they were, including after the fabric moves between passes.
TEST(PathCounter, InPlaceMaskedPassMatchesCopyingOracle) {
  XgftSpec spec;
  spec.children_per_node = {4, 3, 2};
  spec.parents_per_node = {3, 2, 2};
  Topology xgft = topology::build_xgft(spec);
  xgft.assign_breakout_groups(2, 0);
  std::vector<std::pair<const char*, Topology>> cases;
  cases.emplace_back("medium_dcn", topology::build_medium_dcn());
  cases.emplace_back("xgft_breakout", std::move(xgft));
  std::size_t fresh_violations = 0;
  for (auto& [name, topo] : cases) {
    common::Rng rng(0xA5u + topo.link_count());
    PathCounter counter(topo);
    const CapacityConstraint constraint(0.75);
    const std::vector<std::uint64_t> required =
        counter.required_paths(constraint);
    for (int draw = 0; draw < 30; ++draw) {
      // Move the fabric a little, then read the live counts.
      for (std::size_t i = 0; i < topo.link_count(); ++i) {
        if (rng.bernoulli(0.01)) {
          const common::LinkId link(
              static_cast<common::LinkId::underlying_type>(i));
          topo.set_enabled(link, !topo.is_enabled(link));
        }
      }
      const std::vector<std::uint64_t> live = counter.live_counts();
      const std::vector<common::SwitchId> live_violated =
          counter.violated_tors(live, constraint);
      const double density[] = {0.002, 0.02, 0.2};
      LinkMask mask(topo.link_count());
      std::vector<common::LinkId> masked_links;
      for (std::size_t i = 0; i < topo.link_count(); ++i) {
        if (rng.bernoulli(density[draw % 3])) {
          mask.set(i);
          masked_links.push_back(common::LinkId(
              static_cast<common::LinkId::underlying_type>(i)));
        }
      }
      std::vector<std::uint64_t> counts;
      const std::vector<common::SwitchId> want =
          testing::masked_violated_tors_copying(counter, live, live_violated,
                                                mask, masked_links, required,
                                                counts);
      std::vector<common::SwitchId> got;
      counter.masked_violated_tors(got, live_violated, mask, masked_links,
                                   required);
      EXPECT_EQ(got, want) << name << " draw " << draw;
      EXPECT_EQ(counter.live_counts(), live) << name << " draw " << draw;
      EXPECT_EQ(counter.live_counts(), counter.up_paths())
          << name << " draw " << draw;
      fresh_violations += want.size() - live_violated.size();
    }
  }
  EXPECT_GT(fresh_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, IncrementalSweepRandomTest,
                         ::testing::Range(0, 25));

class RefreshAfterChangesRandomTest : public ::testing::TestWithParam<int> {};

// The delta recount behind the live counts must agree with a fresh full
// sweep after arbitrary enable/disable flips of a partly disabled fabric.
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
  EXPECT_EQ(counter.live_counts(), counter.up_paths());

  // Several rounds of random flips, each folded in with a delta recount.
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      if (rng.bernoulli(0.12)) {
        const common::LinkId link(
            static_cast<common::LinkId::underlying_type>(i));
        topo.set_enabled(link, !topo.is_enabled(link));
      }
    }
    EXPECT_EQ(counter.live_counts(), counter.up_paths())
        << "seed " << GetParam() << " round " << round;
  }
}

// The live counts find their changed links themselves, from the enabled
// mask: after any flips (including flips undone before the read) they
// must equal a fresh full sweep. A reader's own mask words, walked with
// for_each_flip, must report exactly the links whose state differs from
// its previous look. A counter over a copy of the topology that shares
// the index must count the copy's links, not the original's.
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
  EXPECT_EQ(counter.live_counts(), counter.up_paths());
  const std::span<const std::uint64_t> words = topo.enabled_mask().words();
  std::vector<std::uint64_t> seen(words.begin(), words.end());
  Topology copy = topo;
  PathCounter shared(copy, counter.index());
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
      if (rng.bernoulli(0.1)) copy.set_enabled(link, !copy.is_enabled(link));
    }
    EXPECT_EQ(counter.live_counts(), counter.up_paths())
        << "seed " << GetParam() << " round " << round;
    EXPECT_EQ(shared.live_counts(), PathCounter(copy).up_paths())
        << "seed " << GetParam() << " round " << round;
    std::vector<common::LinkId> flipped;
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      if (before.test(i) != topo.enabled_mask().test(i)) {
        flipped.push_back(common::LinkId(
            static_cast<common::LinkId::underlying_type>(i)));
      }
    }
    std::vector<common::LinkId> reported;
    for_each_flip(seen, topo.enabled_mask().words(),
                  [&reported](common::LinkId link) {
                    reported.push_back(link);
                  });
    EXPECT_EQ(reported, flipped)
        << "seed " << GetParam() << " round " << round;
    EXPECT_TRUE(std::ranges::equal(seen, topo.enabled_mask().words()));
  }
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

class TorClosureRandomTest : public ::testing::TestWithParam<int> {};

// Every ToR's upward closure mask, indexed by sweep position, must hold
// exactly the switches a brute-force walk reaches upward over installed
// links, disabled ones included, and a second lookup must serve the
// same mask.
TEST_P(TorClosureRandomTest, MatchesBruteForceUpwardWalk) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 7);
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
    if (rng.bernoulli(0.25)) {
      topo.set_enabled(common::LinkId(
                           static_cast<common::LinkId::underlying_type>(i)),
                       false);
    }
  }
  PathCounter counter(topo);
  const std::vector<std::uint32_t>& sweep_pos = counter.index()->sweep_pos;
  for (common::SwitchId tor : topo.tors()) {
    const common::DynamicBitset& mask = counter.tor_closure(tor);
    ASSERT_EQ(mask.size(), topo.switch_count());
    const std::vector<char> reached =
        testing::reachable_brute_force(topo, tor, /*up=*/true);
    for (std::size_t s = 0; s < topo.switch_count(); ++s) {
      EXPECT_EQ(mask.test(sweep_pos[s]), reached[s] != 0)
          << "seed " << GetParam() << " tor " << tor.value() << " switch "
          << s;
    }
    EXPECT_EQ(&counter.tor_closure(tor), &mask);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, TorClosureRandomTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace corropt::core
