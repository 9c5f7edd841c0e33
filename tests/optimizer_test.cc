#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "corropt/optimizer.h"
#include "corropt/path_counter.h"
#include "example_topologies.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt::core {
namespace {

// Reference solver: enumerate every subset of candidates, check
// feasibility over all ToRs with full path counting, and return the best
// achievable disabled penalty. Exponential; for small instances only.
double brute_force_best_penalty(const topology::Topology& topo,
                                const CapacityConstraint& constraint,
                                const std::vector<common::LinkId>& candidates,
                                const CorruptionSet& corruption,
                                const PenaltyFunction& penalty) {
  PathCounter counter(topo);
  const std::size_t n = candidates.size();
  double best = 0.0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    LinkMask off(topo.link_count());
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) {
        off.set(candidates[i].index());
        value += penalty(corruption.rate(candidates[i]));
      }
    }
    if (value <= best) continue;
    if (counter.feasible(counter.up_paths(&off), constraint)) best = value;
  }
  return best;
}

TEST(Optimizer, DisablesEverythingUnderLaxConstraint) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.25);
  CorruptionSet corruption;
  common::Rng rng(1);
  for (int i = 0; i < 8; ++i) {
    corruption.mark(common::LinkId(static_cast<common::LinkId::underlying_type>(
                        rng.uniform_index(topo.link_count()))),
                    1e-4);
  }
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.disabled.size(), corruption.size());
  EXPECT_DOUBLE_EQ(result.remaining_penalty, 0.0);
  for (const auto& [link, rate] : corruption.entries()) {
    EXPECT_FALSE(topo.is_enabled(link));
  }
}

TEST(Optimizer, Fig10OptimalDisablesTwelve) {
  testing::Fig10Example ex = testing::make_fig10_example();
  CapacityConstraint constraint(0.6);
  CorruptionSet corruption;
  for (common::LinkId link : ex.corrupting) corruption.mark(link, 1e-3);
  PathCounter paths(ex.topo);
  Optimizer optimizer(ex.topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.disabled.size(), 12u);  // Figure 10(c).
  // The unique optimum: T-A, T-B plus every uplink of A and B.
  EXPECT_FALSE(ex.topo.is_enabled(ex.tor_uplinks[0]));
  EXPECT_FALSE(ex.topo.is_enabled(ex.tor_uplinks[1]));
  // C's corrupting uplinks stay on: remaining penalty is exactly 4 links.
  EXPECT_NEAR(result.remaining_penalty, 4e-3, 1e-12);
  PathCounter counter(ex.topo);
  EXPECT_EQ(counter.up_paths()[ex.tor.index()], 15u);
}

TEST(Optimizer, Fig11PruningDisablesSafeLinks) {
  testing::Fig11Example ex = testing::make_fig11_example();
  CapacityConstraint constraint(0.5);
  CorruptionSet corruption;
  corruption.mark(ex.g_p, 1e-4);
  corruption.mark(ex.h_q, 1e-4);
  corruption.mark(ex.j_r, 1e-3);  // Worse than s_x.
  corruption.mark(ex.s_x, 1e-5);
  PathCounter paths(ex.topo);
  Optimizer optimizer(ex.topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.exact);
  // G-P and H-Q are upstream of no endangered ToR: pruned as safe.
  EXPECT_EQ(result.pruned_safe_disables, 2u);
  EXPECT_FALSE(ex.topo.is_enabled(ex.g_p));
  EXPECT_FALSE(ex.topo.is_enabled(ex.h_q));
  // Of the coupled pair through ToR J, only the lossier J-R goes.
  EXPECT_FALSE(ex.topo.is_enabled(ex.j_r));
  EXPECT_TRUE(ex.topo.is_enabled(ex.s_x));
  EXPECT_NEAR(result.remaining_penalty, 1e-5, 1e-15);
  EXPECT_EQ(result.segments, 1u);
}

TEST(Optimizer, PrefersHigherPenaltySubset) {
  // One ToR with two uplinks, both corrupting, constraint 50%: only one
  // can be disabled and it must be the one with the higher loss rate.
  topology::Topology topo;
  const auto tor = topo.add_switch(0);
  const auto s1 = topo.add_switch(1);
  const auto s2 = topo.add_switch(1);
  const auto a = topo.add_link(tor, s1);
  const auto b = topo.add_link(tor, s2);
  CapacityConstraint constraint(0.5);
  CorruptionSet corruption;
  corruption.mark(a, 1e-5);
  corruption.mark(b, 3e-3);
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(topo.is_enabled(a));
  EXPECT_FALSE(topo.is_enabled(b));
  EXPECT_NEAR(result.remaining_penalty, 1e-5, 1e-15);
}

class OptimizerExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Property: whatever combination of the optimizer's four switches is set,
// its disabled penalty equals the brute-force optimum and the final
// network state is feasible. The variant's bits 0-3 pick use_pruning,
// use_segmentation, use_reject_cache and prefilter_singletons; bit 4
// solves independent segments on two threads and bit 5 swaps the linear
// penalty for the TCP-throughput one.
TEST_P(OptimizerExactnessTest, MatchesBruteForce) {
  const int seed = std::get<0>(GetParam());
  const int variant = std::get<1>(GetParam());
  common::Rng rng(static_cast<std::uint64_t>(seed) * 131 + 7);

  topology::XgftSpec spec;
  spec.children_per_node = {2 + static_cast<int>(rng.uniform_index(2)),
                            2 + static_cast<int>(rng.uniform_index(2))};
  spec.parents_per_node = {2, 2 + static_cast<int>(rng.uniform_index(2))};
  auto topo = topology::build_xgft(spec);

  const double c = rng.uniform(0.4, 0.8);
  CapacityConstraint constraint(c);
  CorruptionSet corruption;
  std::vector<common::LinkId> candidates;
  const std::size_t count = 3 + rng.uniform_index(8);
  for (std::size_t index : rng.sample_without_replacement(
           topo.link_count(), std::min(count, topo.link_count()))) {
    const common::LinkId link(
        static_cast<common::LinkId::underlying_type>(index));
    candidates.push_back(link);
    corruption.mark(link, rng.log_uniform(1e-7, 1e-2));
  }

  const PenaltyFunction penalty = (variant & 32) != 0
                                      ? PenaltyFunction::tcp_throughput()
                                      : PenaltyFunction::linear();
  const double expected = brute_force_best_penalty(
      topo, constraint, candidates, corruption, penalty);

  OptimizerConfig config;
  config.use_pruning = (variant & 1) != 0;
  config.use_segmentation = (variant & 2) != 0;
  config.use_reject_cache = (variant & 4) != 0;
  config.prefilter_singletons = (variant & 8) != 0;
  config.solver_threads = (variant & 16) != 0 ? 2 : 1;
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, penalty, config);
  const OptimizerResult result = optimizer.run(corruption);

  EXPECT_TRUE(result.exact);
  EXPECT_NEAR(result.disabled_penalty, expected, 1e-12)
      << "seed " << seed << " variant " << variant;
  PathCounter counter(topo);
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, OptimizerExactnessTest,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Range(0, 64)));

TEST(Optimizer, RespectsExistingDisabledLinks) {
  // Links already disabled (awaiting repair) constrain what more can go.
  auto topo = topology::build_fat_tree(4);
  const auto tor = topo.tors().front();
  const auto& uplinks = topo.switch_at(tor).uplinks;
  topo.set_enabled(uplinks[0], false);  // Already under repair.
  CapacityConstraint constraint(0.5);   // Needs 2 of 4 paths.
  CorruptionSet corruption;
  corruption.mark(uplinks[1], 1e-3);
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.disabled.empty())
      << "disabling the second uplink would leave 0 of 4 paths";
  EXPECT_TRUE(topo.is_enabled(uplinks[1]));
}

TEST(Optimizer, DisabledCorruptingLinksAreNotCandidates) {
  auto topo = topology::build_fat_tree(4);
  const auto tor = topo.tors().front();
  const auto link = topo.switch_at(tor).uplinks[0];
  topo.set_enabled(link, false);
  CorruptionSet corruption;
  corruption.mark(link, 1e-3);  // Corrupting but already off.
  CapacityConstraint constraint(0.5);
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.disabled.empty());
  EXPECT_DOUBLE_EQ(result.disabled_penalty, 0.0);
  EXPECT_DOUBLE_EQ(result.remaining_penalty, 0.0);
}

TEST(Optimizer, GreedyFallbackOnHugeSegment) {
  // Force the greedy path with a tiny exact budget; the result must be
  // feasible and flagged non-exact when the fallback actually runs.
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.75);
  CorruptionSet corruption;
  const auto tor = topo.tors().front();
  for (common::LinkId link : topo.switch_at(tor).uplinks) {
    corruption.mark(link, 1e-3);
  }
  const auto agg = topo.link_at(topo.switch_at(tor).uplinks[0]).upper;
  for (common::LinkId link : topo.switch_at(agg).uplinks) {
    corruption.mark(link, 1e-4);
  }
  OptimizerConfig config;
  config.max_exact_segment = 1;
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear(),
                      config);
  const OptimizerResult result = optimizer.run(corruption);
  PathCounter counter(topo);
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
  // Greedy disables the single most damaging feasible link first.
  EXPECT_FALSE(result.disabled.empty());
}

TEST(Optimizer, SegmentationSplitsIndependentPods) {
  // Corrupting links in different pods of a fat-tree with a per-pod
  // bottleneck form independent segments.
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.75);
  CorruptionSet corruption;
  const auto& tors = topo.tors();
  // Both spine uplinks of one aggregation switch in pod 0 and one in
  // pod 1: within a pod, disabling both would leave the pod's ToRs at
  // 2 of 4 paths (< 75%), so the pair is coupled; across pods they are
  // independent.
  const auto agg0 = topo.link_at(topo.switch_at(tors[0]).uplinks[0]).upper;
  const auto agg1 = topo.link_at(topo.switch_at(tors[2]).uplinks[0]).upper;
  corruption.mark(topo.switch_at(agg0).uplinks[0], 1e-3);
  corruption.mark(topo.switch_at(agg0).uplinks[1], 1e-4);
  corruption.mark(topo.switch_at(agg1).uplinks[0], 1e-3);
  corruption.mark(topo.switch_at(agg1).uplinks[1], 1e-4);
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_EQ(result.segments, 2u);
  EXPECT_TRUE(result.exact);
  // In each pod only the worse link can be disabled (75% of 4 = 3 paths).
  EXPECT_EQ(result.disabled.size(), 2u);
  EXPECT_NEAR(result.remaining_penalty, 2e-4, 1e-12);
}

// One optimizer run on a multi-segment medium-DCN instance, capturing
// the full result and the final enabled mask.
OptimizerResult run_medium_instance(std::size_t solver_threads,
                                    common::DynamicBitset& mask_out) {
  topology::Topology topo = topology::build_medium_dcn();
  common::Rng rng(909);
  CorruptionSet corruption;
  for (std::size_t index :
       rng.sample_without_replacement(topo.link_count(), 120)) {
    corruption.mark(
        common::LinkId(static_cast<common::LinkId::underlying_type>(index)),
        rng.log_uniform(1e-7, 1e-2));
  }
  CapacityConstraint constraint(0.875);
  OptimizerConfig config;
  config.solver_threads = solver_threads;
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear(),
                      config);
  const OptimizerResult result = optimizer.run(corruption);
  mask_out = topo.enabled_mask();
  return result;
}

TEST(Optimizer, ThreadCountDoesNotChangeResults) {
  // Contract: solver_threads is a pure speed knob. Every result field —
  // disable list order, penalties, and all search diagnostics — and the
  // final link state must be bit-identical for any thread count.
  common::DynamicBitset serial_mask;
  const OptimizerResult serial = run_medium_instance(1, serial_mask);
  EXPECT_GE(serial.segments, 2u);  // Otherwise the test exercises nothing.
  for (const std::size_t threads : {2u, 8u}) {
    common::DynamicBitset mask;
    const OptimizerResult parallel = run_medium_instance(threads, mask);
    EXPECT_EQ(parallel.disabled, serial.disabled) << threads << " threads";
    EXPECT_EQ(parallel.disabled_penalty, serial.disabled_penalty);
    EXPECT_EQ(parallel.remaining_penalty, serial.remaining_penalty);
    EXPECT_EQ(parallel.exact, serial.exact);
    EXPECT_EQ(parallel.pruned_safe_disables, serial.pruned_safe_disables);
    EXPECT_EQ(parallel.segments, serial.segments);
    EXPECT_EQ(parallel.subsets_evaluated, serial.subsets_evaluated);
    EXPECT_EQ(parallel.cache_skips, serial.cache_skips);
    EXPECT_EQ(parallel.accept_skips, serial.accept_skips);
    EXPECT_EQ(parallel.bound_skips, serial.bound_skips);
    EXPECT_EQ(mask, serial_mask) << threads << " threads";
  }
}

// A cached segment outcome is keyed on its region's links, candidates
// and rates; a per-ToR constraint override changes what the solve
// requires without flipping any link, so it must drop the cache.
TEST(Optimizer, ConstraintOverrideInvalidatesCachedSegments) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.75);
  const common::SwitchId tor = topo.tors().front();
  CorruptionSet corruption;
  // Both uplinks of a ToR with 4 paths: at c = 0.75 neither may go.
  for (common::LinkId link : topo.switch_at(tor).uplinks) {
    corruption.mark(link, 1e-3);
  }
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  EXPECT_TRUE(optimizer.run(corruption).disabled.empty());
  const OptimizerResult again = optimizer.run(corruption);
  EXPECT_TRUE(again.disabled.empty());
  EXPECT_EQ(again.segment_reuses, 1u);

  // At c = 0.5 one uplink may go.
  constraint.set_tor_fraction(tor, 0.5);
  const OptimizerResult relaxed = optimizer.run(corruption);
  EXPECT_EQ(relaxed.segment_reuses, 0u);
  EXPECT_EQ(relaxed.disabled.size(), 1u);
}

}  // namespace
}  // namespace corropt::core
