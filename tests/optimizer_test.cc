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
  // Every ToR uplink of one k=8 pod plus two spine uplinks of each of its
  // aggregation switches: 24 coupled candidates (the pod's ToRs share
  // all of them) form one segment over the exact budget, so the greedy
  // fallback runs. The result must be feasible and flagged non-exact.
  auto topo = topology::build_fat_tree(8);
  CapacityConstraint constraint(0.75);
  CorruptionSet corruption;
  const auto tor = topo.tors().front();
  const int pod = topo.switch_at(tor).pod;
  std::size_t marked = 0;
  double rate = 1e-3;
  for (const common::SwitchId other : topo.tors()) {
    if (topo.switch_at(other).pod != pod) continue;
    for (common::LinkId link : topo.switch_at(other).uplinks) {
      corruption.mark(link, rate);
      rate *= 0.9;
      ++marked;
    }
  }
  for (common::LinkId up : topo.switch_at(tor).uplinks) {
    const auto& spine_links = topo.switch_at(topo.link_at(up).upper).uplinks;
    for (std::size_t i = 0; i < 2; ++i) {
      corruption.mark(spine_links[i], rate);
      rate *= 0.9;
      ++marked;
    }
  }
  ASSERT_GT(marked, kMaxExactSegment);
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_EQ(result.segments, 1u);
  EXPECT_FALSE(result.exact);
  PathCounter counter(topo);
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
  // Greedy disables the single most damaging feasible link first.
  EXPECT_FALSE(result.disabled.empty());
  EXPECT_FALSE(topo.is_enabled(topo.switch_at(tor).uplinks[0]));
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

// Per-ToR overrides between runs, including the exact fraction
// 0.6 x 25 = 15: the warm optimizer (segment cache and required-paths
// array kept across runs) must decide exactly what a cold one does, and
// PathCounter::violated_tors must agree with the required array.
TEST(Optimizer, ConstraintOverridesBetweenRunsMatchColdOptimizer) {
  topology::XgftSpec spec;
  spec.children_per_node = {3, 4};
  spec.parents_per_node = {5, 5};
  auto topo = topology::build_xgft(spec);
  PathCounter paths(topo);
  const common::SwitchId tor0 = topo.tors().front();
  ASSERT_EQ(paths.design_paths()[tor0.index()], 25u);

  // The boundary itself: 15 of 25 paths meet 0.6, 14 do not.
  {
    CapacityConstraint constraint(0.75);
    constraint.set_tor_fraction(tor0, 0.6);
    auto probe = topo;
    PathCounter probe_paths(probe);
    ASSERT_EQ(probe_paths.required_paths(constraint)[tor0.index()], 15u);
    const topology::Switch& sw = probe.switch_at(tor0);
    probe.set_enabled(sw.uplinks[0], false);
    probe.set_enabled(sw.uplinks[1], false);
    ASSERT_EQ(probe_paths.up_paths()[tor0.index()], 15u);
    auto violated = probe_paths.violated_tors(probe_paths.up_paths(),
                                              constraint);
    EXPECT_TRUE(std::find(violated.begin(), violated.end(), tor0) ==
                violated.end());
    const common::SwitchId agg = probe.link_at(sw.uplinks[2]).upper;
    probe.set_enabled(probe.switch_at(agg).uplinks[0], false);
    ASSERT_EQ(probe_paths.up_paths()[tor0.index()], 14u);
    violated = probe_paths.violated_tors(probe_paths.up_paths(), constraint);
    EXPECT_TRUE(std::find(violated.begin(), violated.end(), tor0) !=
                violated.end());
  }

  CapacityConstraint constraint(0.75);
  Optimizer warm(topo, paths, constraint, PenaltyFunction::linear());
  CorruptionSet corruption;
  common::Rng rng(606);
  const double fractions[] = {0.6, 0.5, 0.8, 0.96, 0.75, 0.6};
  const double rates[] = {1e-6, 1e-5, 1e-4, 1e-3};
  std::size_t disabled_total = 0;
  std::size_t segments_total = 0;
  for (int round = 0; round < 40; ++round) {
    // Repairs: some disabled corrupting links come back clean.
    std::vector<common::LinkId> repaired;
    for (const auto& [link, entry] : corruption.entries()) {
      if (!topo.is_enabled(link) && rng.bernoulli(0.3)) {
        repaired.push_back(link);
      }
    }
    for (common::LinkId link : repaired) {
      corruption.unmark(link);
      topo.set_enabled(link, true);
    }
    // New corruption (and re-marks at a new rate).
    for (int k = 0; k < 4; ++k) {
      const auto link = common::LinkId(
          static_cast<common::LinkId::underlying_type>(
              rng.uniform_index(topo.link_count())));
      corruption.mark(link, rates[rng.uniform_index(4)]);
    }
    // Every other round overrides a random ToR (tor0 with 0.6 every
    // fourth); the rounds between keep the cache.
    if (round % 4 == 0) {
      constraint.set_tor_fraction(tor0, 0.6);
    } else if (round % 2 == 0) {
      constraint.set_tor_fraction(
          topo.tors()[rng.uniform_index(topo.tors().size())],
          fractions[rng.uniform_index(6)]);
    }

    auto cold_topo = topo;
    PathCounter cold_paths(cold_topo);
    Optimizer cold(cold_topo, cold_paths, constraint,
                   PenaltyFunction::linear());
    const OptimizerResult want = cold.run(corruption);
    const OptimizerResult got = warm.run(corruption);
    EXPECT_TRUE(same_outcome(got, want)) << "round " << round;
    EXPECT_TRUE(topo.enabled_mask() == cold_topo.enabled_mask())
        << "round " << round;
    disabled_total += got.disabled.size();
    segments_total += got.segments;

    const std::vector<std::uint64_t> counts = paths.up_paths();
    const std::vector<std::uint64_t> required =
        paths.required_paths(constraint);
    std::vector<common::SwitchId> below;
    for (common::SwitchId t : topo.tors()) {
      if (counts[t.index()] < required[t.index()]) below.push_back(t);
      EXPECT_EQ(required[t.index()],
                constraint.min_paths(t, paths.design_paths()[t.index()]));
    }
    EXPECT_EQ(paths.violated_tors(counts, constraint), below)
        << "round " << round;
  }
  EXPECT_GT(disabled_total, 0u);
  EXPECT_GT(segments_total, 0u);
  EXPECT_GT(warm.incremental_stats().segment_reuses, 0u);
}

// Every (use_pruning, use_segmentation) combination keeps the segment
// cache and the reused segment views across runs; churn over many runs
// must leave each warm optimizer deciding exactly what a cold one does,
// search effort included, with the ablations' single contested segment
// and unpruned ToR list among the views it reuses.
TEST(Optimizer, AblationsMatchColdOptimizerAcrossRuns) {
  topology::XgftSpec spec;
  spec.children_per_node = {3, 4};
  spec.parents_per_node = {3, 3};
  const double rates[] = {1e-6, 1e-5, 1e-4, 1e-3};
  for (int variant = 0; variant < 4; ++variant) {
    OptimizerConfig config;
    config.use_pruning = (variant & 1) != 0;
    config.use_segmentation = (variant & 2) != 0;
    auto topo = topology::build_xgft(spec);
    const CapacityConstraint constraint(0.6);
    PathCounter paths(topo);
    Optimizer warm(topo, paths, constraint, PenaltyFunction::linear(),
                   config);
    CorruptionSet corruption;
    common::Rng rng(4040 + static_cast<std::uint64_t>(variant));
    std::size_t disabled_total = 0;
    for (int round = 0; round < 45; ++round) {
      // Churn every third round; the two quiet rounds after it let even
      // the one-segment ablation reach a run with nothing to re-solve.
      if (round % 3 == 0) {
        std::vector<common::LinkId> repaired;
        for (const auto& [link, entry] : corruption.entries()) {
          if (!topo.is_enabled(link) && rng.bernoulli(0.4)) {
            repaired.push_back(link);
          }
        }
        for (common::LinkId link : repaired) {
          corruption.unmark(link);
          topo.set_enabled(link, true);
        }
        // Grow the set on most churns and re-mark or clear on the rest,
        // so the candidate count moves both ways.
        const int marks = round % 9 == 6 ? 1 : 3;
        for (int k = 0; k < marks; ++k) {
          corruption.mark(
              common::LinkId(static_cast<common::LinkId::underlying_type>(
                  rng.uniform_index(topo.link_count()))),
              rates[rng.uniform_index(4)]);
        }
        if (round % 15 == 12 && corruption.size() > 0) {
          corruption.unmark(corruption.entries().begin()->first);
        }
      }

      auto cold_topo = topo;
      PathCounter cold_paths(cold_topo);
      Optimizer cold(cold_topo, cold_paths, constraint,
                     PenaltyFunction::linear(), config);
      const OptimizerResult want = cold.run(corruption);
      const OptimizerResult got = warm.run(corruption);
      EXPECT_TRUE(same_outcome(got, want))
          << "variant " << variant << " round " << round;
      EXPECT_TRUE(topo.enabled_mask() == cold_topo.enabled_mask())
          << "variant " << variant << " round " << round;
      disabled_total += got.disabled.size();
    }
    EXPECT_GT(disabled_total, 0u) << "variant " << variant;
    EXPECT_GT(warm.incremental_stats().segment_reuses, 0u)
        << "variant " << variant;
  }
}

}  // namespace
}  // namespace corropt::core
