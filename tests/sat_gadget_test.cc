#include <gtest/gtest.h>

#include "common/rng.h"
#include "corropt/optimizer.h"
#include "corropt/path_counter.h"
#include "corropt/sat_gadget.h"

namespace corropt::core {
namespace {

// Runs the optimizer on the Lemma A.1 gadget and returns the number of
// corrupting links it manages to disable.
std::size_t max_disabled(const SatInstance& instance) {
  SatGadget gadget = build_sat_gadget(instance);
  CorruptionSet corruption;
  // Equal error properties on every link in L, as the reduction requires.
  for (common::LinkId link : gadget.corrupting) corruption.mark(link, 1e-3);
  PathCounter paths(gadget.topo);
  Optimizer optimizer(gadget.topo, paths, gadget.connectivity,
                      PenaltyFunction::linear());
  const OptimizerResult result = optimizer.run(corruption);
  EXPECT_TRUE(result.exact);
  return result.disabled.size();
}

TEST(SatBruteForce, KnownInstances) {
  // (x1) ∧ (¬x1) is unsatisfiable even with padding duplicates.
  SatInstance unsat;
  unsat.num_vars = 1;
  unsat.clauses = {{{1, 1, 1}}, {{-1, -1, -1}}};
  EXPECT_FALSE(solve_sat_brute_force(unsat));

  SatInstance sat;
  sat.num_vars = 2;
  sat.clauses = {{{1, 2, 2}}, {{-1, 2, 2}}};
  EXPECT_TRUE(solve_sat_brute_force(sat));
}

TEST(SatGadget, StructureMatchesLemma) {
  SatInstance instance;
  instance.num_vars = 2;
  instance.clauses = {{{1, -2, 2}}, {{-1, 2, 1}}, {{1, 2, -2}}};
  const SatGadget gadget = build_sat_gadget(instance);
  // 2r literal aggs, k clause ToRs + k helper ToRs, 2r spines.
  EXPECT_EQ(gadget.topo.switches_at_level(1).size(), 4u);
  EXPECT_EQ(gadget.topo.tors().size(), 6u);
  EXPECT_EQ(gadget.topo.switches_at_level(2).size(), 4u);
  EXPECT_EQ(gadget.corrupting.size(), 4u);
  // Each clause ToR has 3 uplinks, each helper 2, each literal agg 1
  // spine uplink.
  std::size_t expected_links = 3 * 3 + 3 * 2 + 4;
  EXPECT_EQ(gadget.topo.link_count(), expected_links);
  // Every ToR must initially reach the spine.
  PathCounter counter(gadget.topo);
  const auto counts = counter.up_paths();
  for (common::SwitchId tor : gadget.topo.tors()) {
    EXPECT_GE(counts[tor.index()], 1u);
  }
}

TEST(SatGadget, SatisfiableInstanceDisablesOnePerVariable) {
  // (x1 v x2 v x3) ∧ (¬x1 v x2 v ¬x3) ∧ (x1 v ¬x2 v x3): satisfiable.
  SatInstance instance;
  instance.num_vars = 3;
  instance.clauses = {{{1, 2, 3}}, {{-1, 2, -3}}, {{1, -2, 3}}};
  ASSERT_TRUE(solve_sat_brute_force(instance));
  EXPECT_EQ(max_disabled(instance), 3u);  // |L'| = r.
}

TEST(SatGadget, UnsatisfiableInstanceDisablesFewer) {
  // The classic 8-clause unsatisfiable core over 3 variables: every
  // possible sign combination, so no assignment satisfies all.
  SatInstance instance;
  instance.num_vars = 3;
  for (int a : {1, -1}) {
    for (int b : {2, -2}) {
      for (int c : {3, -3}) {
        instance.clauses.push_back({{a, b, c}});
      }
    }
  }
  ASSERT_FALSE(solve_sat_brute_force(instance));
  EXPECT_LT(max_disabled(instance), 3u);
}

class SatGadgetRandomTest : public ::testing::TestWithParam<int> {};

// Property: for random 3-SAT instances, the optimizer disables exactly
// num_vars corrupting links iff the instance is satisfiable — the
// reduction of Appendix A, exercised end to end.
TEST_P(SatGadgetRandomTest, OptimizerDecidesSatisfiability) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 1);
  SatInstance instance;
  instance.num_vars = 3 + static_cast<int>(rng.uniform_index(3));  // 3-5
  const int num_clauses =
      instance.num_vars + static_cast<int>(rng.uniform_index(10));
  for (int i = 0; i < num_clauses; ++i) {
    SatClause clause{};
    for (int j = 0; j < 3; ++j) {
      const int var =
          1 + static_cast<int>(rng.uniform_index(instance.num_vars));
      clause.literals[static_cast<std::size_t>(j)] =
          rng.bernoulli(0.5) ? var : -var;
    }
    instance.clauses.push_back(clause);
  }
  const bool satisfiable = solve_sat_brute_force(instance);
  const std::size_t disabled = max_disabled(instance);
  EXPECT_LE(disabled, static_cast<std::size_t>(instance.num_vars))
      << "helper ToRs force one live literal per variable";
  EXPECT_EQ(disabled == static_cast<std::size_t>(instance.num_vars),
            satisfiable)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Random3Sat, SatGadgetRandomTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace corropt::core
