#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "corropt/fast_checker.h"
#include "corropt/path_counter.h"
#include "example_topologies.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "path_oracles.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt::core {
namespace {

using testing::count_paths_brute_force;

std::uint64_t counter_value(const obs::MetricsRegistry& registry,
                            std::string_view name) {
  for (const auto& c : registry.snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(FastChecker, DisablesWhenCapacityPermits) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.5);  // Each ToR may lose half its paths.
  PathCounter paths(topo);
  FastChecker checker(topo, paths, constraint);
  const auto tor = topo.tors().front();
  const auto uplinks = topo.switch_at(tor).uplinks;
  EXPECT_TRUE(checker.try_disable(uplinks[0]));  // 2/4 left: OK.
  EXPECT_FALSE(checker.try_disable(uplinks[1]));  // 0/4 left: refused.
  EXPECT_FALSE(topo.is_enabled(uplinks[0]));
  EXPECT_TRUE(topo.is_enabled(uplinks[1]));
}

TEST(FastChecker, IdempotentOnDisabledLinks) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.5);
  PathCounter paths(topo);
  FastChecker checker(topo, paths, constraint);
  const auto link = topo.switch_at(topo.tors().front()).uplinks[0];
  EXPECT_TRUE(checker.try_disable(link));
  EXPECT_TRUE(checker.try_disable(link));
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count() - 1);
}

TEST(FastChecker, ConsidersRemoteTors) {
  // An aggregation uplink affects every ToR in the pod; the fast checker
  // must account for ToRs that are not adjacent to the link.
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.75);  // Each ToR needs 3 of 4 paths.
  PathCounter paths(topo);
  FastChecker checker(topo, paths, constraint);
  const auto tor = topo.tors().front();
  // Disable one ToR uplink elsewhere first... the pod ToR is at 4/4 now;
  // one agg-spine uplink in the pod removes 1 path from both pod ToRs.
  const auto agg = topo.link_at(topo.switch_at(tor).uplinks[0]).upper;
  const auto agg_uplinks = topo.switch_at(agg).uplinks;
  EXPECT_TRUE(checker.try_disable(agg_uplinks[0]));  // 3/4 for pod ToRs.
  // A second agg uplink in the same pod would leave them at 2/4 < 75%.
  const auto other_agg = topo.link_at(topo.switch_at(tor).uplinks[1]).upper;
  EXPECT_FALSE(checker.try_disable(topo.switch_at(other_agg).uplinks[0]));
}

TEST(FastChecker, CanDisableDoesNotMutate) {
  auto topo = topology::build_fat_tree(4);
  CapacityConstraint constraint(0.5);
  PathCounter paths(topo);
  FastChecker checker(topo, paths, constraint);
  const auto link = topo.switch_at(topo.tors().front()).uplinks[0];
  EXPECT_TRUE(checker.can_disable(link));
  EXPECT_TRUE(topo.is_enabled(link));
  EXPECT_EQ(topo.enabled_link_count(), topo.link_count());
}

TEST(FastChecker, BeatsSwitchLocalOnFig10Example) {
  // On the Figure 10 topology the fast checker (global view) disables
  // every corrupting link that keeps T at >= 60% of its 25 paths.
  testing::Fig10Example ex = testing::make_fig10_example();
  CapacityConstraint constraint(0.6);
  PathCounter paths(ex.topo);
  FastChecker checker(ex.topo, paths, constraint);
  std::size_t disabled = 0;
  for (common::LinkId link : ex.corrupting) {
    if (checker.try_disable(link)) ++disabled;
  }
  // Greedy in arrival order: T-A (20 paths), T-B (15), then A's and B's
  // uplinks cost nothing (already unreachable), then C's would drop below
  // 15 and are refused: 12 disabled, matching the optimum here.
  EXPECT_EQ(disabled, 12u);
  PathCounter counter(ex.topo);
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
  EXPECT_EQ(counter.up_paths()[ex.tor.index()], 15u);
}

class FastCheckerPropertyTest : public ::testing::TestWithParam<int> {};

// Property: the fast checker never violates any ToR's capacity
// constraint, and its decision agrees with an independent feasibility
// check computed via brute-force path enumeration.
TEST_P(FastCheckerPropertyTest, NeverViolatesConstraint) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  topology::XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
    spec.parents_per_node.push_back(
        2 + static_cast<int>(rng.uniform_index(2)));
  }
  auto topo = topology::build_xgft(spec);
  const double fraction = rng.uniform(0.3, 0.9);
  CapacityConstraint constraint(fraction);
  PathCounter paths(topo);
  FastChecker checker(topo, paths, constraint);
  PathCounter counter(topo);

  for (int step = 0; step < 40; ++step) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
    // Independent prediction of feasibility via brute force.
    LinkMask mask(topo.link_count());
    mask.set(link.index());
    bool expect_ok = true;
    for (common::SwitchId tor : topo.tors()) {
      const auto paths = count_paths_brute_force(topo, tor, &mask);
      if (paths < constraint.min_paths(
                       tor, counter.design_paths()[tor.index()])) {
        expect_ok = false;
        break;
      }
    }
    const bool was_enabled = topo.is_enabled(link);
    const bool disabled = checker.try_disable(link);
    if (was_enabled) {
      EXPECT_EQ(disabled, expect_ok) << "seed " << GetParam();
    }
    // Invariant: the network is always feasible after the checker acts.
    EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FastCheckerPropertyTest,
                         ::testing::Range(0, 15));

class IncrementalEquivalenceTest : public ::testing::TestWithParam<int> {};

// Property: the incremental (downstream-closure) decision agrees with a
// full masked sweep on every candidate, across random feasible states
// reached through interleaved disables and external enables and
// disables behind the checker's back, starting on a fabric with links
// already down. Every decision recounts
// exactly the switches reachable downward from the link's lower
// endpoint over enabled links (none for a disabled link), as
// "fastcheck.closure_switches" shows.
TEST_P(IncrementalEquivalenceTest, MatchesFullSweep) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1013 + 3);
  topology::XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        2 + static_cast<int>(rng.uniform_index(2)));
    spec.parents_per_node.push_back(
        2 + static_cast<int>(rng.uniform_index(2)));
  }
  auto topo = topology::build_xgft(spec);
  CapacityConstraint constraint(rng.uniform(0.3, 0.8));
  auto random_link = [&] {
    return common::LinkId(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
  };
  // External disable behind the checker's back, kept only when every
  // ToR stays feasible (the checker's precondition).
  auto external_disable = [&](topology::Topology& fabric,
                              common::LinkId link) {
    fabric.set_enabled(link, false);
    const PathCounter fabric_counter(fabric);
    if (!fabric_counter.feasible(fabric_counter.up_paths(), constraint)) {
      fabric.set_enabled(link, true);
    }
  };

  // Start from a fabric with links already down.
  for (int i = 0; i < 3; ++i) external_disable(topo, random_link());
  PathCounter paths(topo);
  FastChecker checker(topo, paths, constraint);
  obs::MetricsRegistry registry;
  obs::Sink sink;
  sink.metrics = &registry;
  checker.set_sink(&sink);
  auto decide = [&](common::LinkId link, auto&& decision) {
    std::uint64_t expected = 0;
    if (topo.is_enabled(link)) {
      for (char reached : testing::reachable_brute_force(
               topo, topo.link_at(link).lower, /*up=*/false)) {
        expected += reached != 0 ? 1 : 0;
      }
    }
    const std::uint64_t before =
        counter_value(registry, "fastcheck.closure_switches");
    const bool verdict = decision();
    EXPECT_EQ(counter_value(registry, "fastcheck.closure_switches") - before,
              expected)
        << "seed " << GetParam() << " link " << link.value();
    return verdict;
  };
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(i));
    EXPECT_EQ(decide(link, [&] { return checker.can_disable(link); }),
              checker.can_disable(link, {}))
        << "seed " << GetParam() << " first pass, link " << link.value();
  }

  for (int step = 0; step < 80; ++step) {
    const common::LinkId link = random_link();
    const int action = static_cast<int>(rng.uniform_index(4));
    if (action == 0) {
      // Compare incremental vs full on the same candidate.
      const bool incremental =
          decide(link, [&] { return checker.can_disable(link); });
      const bool full = checker.can_disable(link, {});
      EXPECT_EQ(incremental, full)
          << "seed " << GetParam() << " step " << step << " link "
          << link.value();
      decide(link, [&] { return checker.try_disable(link); });
    } else if (action == 1) {
      // External re-enable behind the checker's back.
      topo.set_enabled(link, true);
    } else if (action == 2) {
      external_disable(topo, link);
    } else {
      decide(link, [&] { return checker.try_disable(link); });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, IncrementalEquivalenceTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace corropt::core
