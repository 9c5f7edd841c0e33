#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "corropt/path_counter.h"
#include "corropt/switch_local.h"
#include "example_topologies.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt::core {
namespace {

TEST(SwitchLocal, ThresholdMapping) {
  // Three-stage topologies (r = 2) need sc = sqrt(c) (Section 5.1).
  EXPECT_NEAR(switch_local_threshold(0.6, 2), std::sqrt(0.6), 1e-12);
  EXPECT_NEAR(switch_local_threshold(0.75, 2), std::sqrt(0.75), 1e-12);
  // r tiers need the r-th root.
  EXPECT_NEAR(switch_local_threshold(0.5, 3), std::cbrt(0.5), 1e-12);
  EXPECT_NEAR(switch_local_threshold(0.9, 1), 0.9, 1e-12);
}

TEST(SwitchLocal, DisableBudget) {
  auto topo = topology::build_fat_tree(4);  // 2 uplinks per switch
  SwitchLocalChecker strict(topo, 0.9);
  EXPECT_EQ(strict.disable_budget(topo.tors().front()), 0);
  SwitchLocalChecker lax(topo, 0.5);
  EXPECT_EQ(lax.disable_budget(topo.tors().front()), 1);
}

TEST(SwitchLocal, BudgetAvoidsFloatingPointHazard) {
  // m=5, sc=0.6: floor(5 * 0.4) must be exactly 2 even though
  // 5 * (1 - 0.6) is 1.9999999999999998 in binary floating point.
  testing::Fig10Example ex = testing::make_fig10_example();
  SwitchLocalChecker checker(ex.topo, 0.6);
  EXPECT_EQ(checker.disable_budget(ex.tor), 2);
}

TEST(SwitchLocal, EnforcesPerSwitchBudget) {
  auto topo = topology::build_fat_tree(8);  // 4 uplinks per switch
  SwitchLocalChecker checker(topo, 0.5);    // Budget 2 per switch.
  const auto tor = topo.tors().front();
  const auto& uplinks = topo.switch_at(tor).uplinks;
  EXPECT_TRUE(checker.try_disable(uplinks[0]));
  EXPECT_TRUE(checker.try_disable(uplinks[1]));
  EXPECT_FALSE(checker.try_disable(uplinks[2]));
  EXPECT_FALSE(checker.can_disable(uplinks[3]));
  // Re-enabling restores the budget.
  topo.set_enabled(uplinks[0], true);
  EXPECT_TRUE(checker.can_disable(uplinks[2]));
}

TEST(SwitchLocal, IgnoresRemoteTors) {
  // The switch-local check only sees the lower switch; it happily
  // disables links that a global view would refuse. This is the core
  // sub-optimality of Figure 10(a).
  testing::Fig10Example ex = testing::make_fig10_example();
  SwitchLocalChecker checker(ex.topo, 0.6);  // Direct sc = c mapping.
  std::size_t disabled = 0;
  for (common::LinkId link : ex.corrupting) {
    if (checker.try_disable(link)) ++disabled;
  }
  EXPECT_EQ(disabled, 8u);  // Figure 10(a): 8 disabled links.
  // ...but ToR T retains only 13 of 25 paths (52%), violating the 60%
  // capacity constraint the operator wanted. (The paper's instance shows
  // 9 of 25; the qualitative violation is the point.)
  PathCounter counter(ex.topo);
  const auto counts = counter.up_paths();
  EXPECT_EQ(counts[ex.tor.index()], 13u);
  CapacityConstraint constraint(0.6);
  EXPECT_FALSE(counter.feasible(counts, constraint));
}

TEST(SwitchLocal, SqrtMappingIsSafeButConservative) {
  testing::Fig10Example ex = testing::make_fig10_example();
  SwitchLocalChecker checker(  // sc = sqrt(0.6)
      ex.topo, switch_local_threshold(0.6, ex.topo.top_level()));
  EXPECT_NEAR(checker.sc(), std::sqrt(0.6), 1e-12);
  std::size_t disabled = 0;
  for (common::LinkId link : ex.corrupting) {
    if (checker.try_disable(link)) ++disabled;
  }
  EXPECT_EQ(disabled, 4u);  // Figure 10(b): only 4 links disabled.
  PathCounter counter(ex.topo);
  CapacityConstraint constraint(0.6);
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
}

class SwitchLocalSafetyTest : public ::testing::TestWithParam<double> {};

// Property (the sqrt-law): with sc = c^(1/r), switch-local decisions can
// never violate any ToR's capacity constraint c, whatever the order of
// corrupting links.
TEST_P(SwitchLocalSafetyTest, SqrtLawGuaranteesCapacity) {
  const double c = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(c * 1000));
  auto topo = topology::build_fat_tree(6);
  SwitchLocalChecker checker(topo,
                             switch_local_threshold(c, topo.top_level()));
  PathCounter counter(topo);
  CapacityConstraint constraint(c);
  for (int step = 0; step < 200; ++step) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng.uniform_index(topo.link_count())));
    checker.try_disable(link);
  }
  EXPECT_TRUE(counter.feasible(counter.up_paths(), constraint));
}

INSTANTIATE_TEST_SUITE_P(Constraints, SwitchLocalSafetyTest,
                         ::testing::Values(0.25, 0.5, 0.6, 0.75, 0.9));

}  // namespace
}  // namespace corropt::core
