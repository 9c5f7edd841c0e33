// Deeper optimizer behaviours: crafted non-greedy instances, reject-cache
// bookkeeping, deep topologies, and penalty-shape interaction.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "corropt/optimizer.h"
#include "corropt/path_counter.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt::core {
namespace {

using topology::Topology;

// One ToR with `n` uplinks, each agg with `m` spine uplinks.
Topology star(int n, int m) {
  Topology topo;
  const auto tor = topo.add_switch(0, "T");
  std::vector<common::SwitchId> spines;
  for (int s = 0; s < m; ++s) {
    std::string name = "S";  // Appended: GCC 12 -O3 -Wrestrict.
    name += std::to_string(s);
    spines.push_back(topo.add_switch(2, std::move(name)));
  }
  for (int a = 0; a < n; ++a) {
    std::string name = "A";
    name += std::to_string(a);
    const auto agg = topo.add_switch(1, std::move(name));
    topo.add_link(tor, agg);
    for (const auto spine : spines) topo.add_link(agg, spine);
  }
  topo.validate();
  return topo;
}

TEST(OptimizerDeep, BeatsGreedyOnHeterogeneousCosts) {
  // The scenario a greedy-by-rate checker gets wrong: one corrupting ToR
  // uplink at rate 1e-3 (cost: 5 paths) vs five corrupting agg-spine
  // links at 3e-4 each (cost: 1 path each, 1.5e-3 total). The margin
  // fits either the big link or all five smalls but not both; greedy
  // grabs the single highest rate and strands more total loss, while
  // the optimum sacrifices the big link.
  Topology topo = star(4, 5);  // Design: 20 paths per ToR.
  CapacityConstraint constraint(0.75);  // Margin: 5 paths.
  CorruptionSet corruption;
  const auto tor = topo.tors().front();
  const auto bad_uplink = topo.switch_at(tor).uplinks[0];  // Costs 5.
  corruption.mark(bad_uplink, 1e-3);
  // Five corrupting spine links across OTHER aggs, 1 path each.
  const auto agg1 = topo.link_at(topo.switch_at(tor).uplinks[1]).upper;
  const auto agg2 = topo.link_at(topo.switch_at(tor).uplinks[2]).upper;
  std::vector<common::LinkId> smalls;
  for (int i = 0; i < 3; ++i) smalls.push_back(topo.switch_at(agg1).uplinks[i]);
  for (int i = 0; i < 2; ++i) smalls.push_back(topo.switch_at(agg2).uplinks[i]);
  for (common::LinkId link : smalls) corruption.mark(link, 3e-4);
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.exact);
  EXPECT_TRUE(topo.is_enabled(bad_uplink))
      << "the optimizer must sacrifice the single big link";
  for (common::LinkId link : smalls) {
    EXPECT_FALSE(topo.is_enabled(link));
  }
  EXPECT_NEAR(result.disabled_penalty, 1.5e-3, 1e-12);
  EXPECT_NEAR(result.remaining_penalty, 1e-3, 1e-12);
}

TEST(OptimizerDeep, RejectCacheSkipsSupersets) {
  // Force a segment where a small infeasible core exists: the cache must
  // record it and skip its supersets without evaluating them.
  Topology topo = star(4, 4);  // 16 design paths.
  CapacityConstraint constraint(0.75);  // Margin 4.
  CorruptionSet corruption;
  const auto tor = topo.tors().front();
  // Two corrupting ToR uplinks (cost 4 each: any pair infeasible) plus
  // three corrupting spine links on a third agg (cost 1 each).
  corruption.mark(topo.switch_at(tor).uplinks[0], 1e-3);
  corruption.mark(topo.switch_at(tor).uplinks[1], 9e-4);
  const auto agg = topo.link_at(topo.switch_at(tor).uplinks[2]).upper;
  for (int i = 0; i < 3; ++i) {
    corruption.mark(topo.switch_at(agg).uplinks[i], 1e-4);
  }

  OptimizerConfig with_cache;
  PathCounter cached_paths(topo);
  Optimizer cached(topo, cached_paths, constraint, PenaltyFunction::linear(),
                   with_cache);
  const OptimizerResult cached_result = cached.run(corruption);
  EXPECT_TRUE(cached_result.exact);
  EXPECT_GT(cached_result.cache_skips, 0u);

  // Same instance without the cache: identical answer, more evaluations.
  Topology topo2 = star(4, 4);
  CorruptionSet corruption2;
  corruption2.mark(topo2.switch_at(topo2.tors()[0]).uplinks[0], 1e-3);
  corruption2.mark(topo2.switch_at(topo2.tors()[0]).uplinks[1], 9e-4);
  const auto agg2 =
      topo2.link_at(topo2.switch_at(topo2.tors()[0]).uplinks[2]).upper;
  for (int i = 0; i < 3; ++i) {
    corruption2.mark(topo2.switch_at(agg2).uplinks[i], 1e-4);
  }
  OptimizerConfig no_cache;
  no_cache.use_reject_cache = false;
  PathCounter uncached_paths(topo2);
  Optimizer uncached(topo2, uncached_paths, constraint,
                     PenaltyFunction::linear(), no_cache);
  const OptimizerResult uncached_result = uncached.run(corruption2);
  EXPECT_NEAR(uncached_result.disabled_penalty,
              cached_result.disabled_penalty, 1e-15);
  EXPECT_GT(uncached_result.subsets_evaluated,
            cached_result.subsets_evaluated);
  EXPECT_EQ(uncached_result.cache_skips, 0u);
}

TEST(OptimizerDeep, WorksOnFourTierTopologies) {
  topology::XgftSpec spec;
  spec.children_per_node = {2, 2, 2};
  spec.parents_per_node = {2, 2, 2};
  Topology topo = topology::build_xgft(spec);
  PathCounter counter(topo);
  // Each ToR has 2*2*2 = 8 design paths.
  EXPECT_EQ(counter.design_paths()[topo.tors().front().index()], 8u);

  CapacityConstraint constraint(0.5);
  CorruptionSet corruption;
  common::Rng rng(5);
  for (std::size_t index :
       rng.sample_without_replacement(topo.link_count(), 6)) {
    corruption.mark(
        common::LinkId(static_cast<common::LinkId::underlying_type>(index)),
        rng.log_uniform(1e-6, 1e-3));
  }
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.exact);
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
  // Maximality: nothing else can be disabled alone.
  std::vector<common::LinkId> active;
  corruption.active(topo, active);
  for (common::LinkId link : active) {
    LinkMask off(topo.link_count());
    off.set(link.index());
    EXPECT_FALSE(counter.feasible(counter.up_paths(&off), constraint))
        << "link " << link.value() << " was left enabled but is disableable";
  }
}

TEST(OptimizerDeep, StepPenaltyIgnoresSubThresholdLinks) {
  // With a step penalty, sub-SLA corrupting links contribute nothing, so
  // the optimizer should spend scarce margin only on SLA violators.
  Topology topo = star(2, 2);  // 4 design paths.
  CapacityConstraint constraint(0.75);  // Margin 1 path.
  CorruptionSet corruption;
  const auto tor = topo.tors().front();
  const auto agg0 = topo.link_at(topo.switch_at(tor).uplinks[0]).upper;
  const auto agg1 = topo.link_at(topo.switch_at(tor).uplinks[1]).upper;
  const auto small = topo.switch_at(agg0).uplinks[0];
  const auto big = topo.switch_at(agg1).uplinks[0];
  corruption.mark(small, 9e-5);  // Below the 1e-4 SLA.
  corruption.mark(big, 2e-4);   // Above it.
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::step());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_FALSE(topo.is_enabled(big));
  // The sub-threshold link may or may not be disabled (zero penalty
  // either way), but the SLA violator must go.
  EXPECT_NEAR(result.disabled_penalty, 1.0, 1e-12);
  EXPECT_NEAR(result.remaining_penalty, 0.0, 1e-12);
}

TEST(OptimizerDeep, EmptyCorruptionSetIsNoop) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.75);
  CorruptionSet corruption;
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.disabled.empty());
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.segments, 0u);
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

TEST(OptimizerDeep, RepeatedRunsAreIdempotent) {
  auto topo = topology::build_fat_tree(8);
  CapacityConstraint constraint(0.75);
  CorruptionSet corruption;
  common::Rng rng(6);
  for (std::size_t index :
       rng.sample_without_replacement(topo.link_count(), 10)) {
    corruption.mark(
        common::LinkId(static_cast<common::LinkId::underlying_type>(index)),
        rng.log_uniform(1e-6, 1e-3));
  }
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult first = optimizer.run(corruption);
  const OptimizerResult second = optimizer.run(corruption);
  EXPECT_TRUE(second.disabled.empty())
      << "a second run with no state change must disable nothing more";
  EXPECT_NEAR(second.remaining_penalty, first.remaining_penalty, 1e-15);
}

}  // namespace
}  // namespace corropt::core
