// The Appendix A NP-hardness construction.
//
// Theorem 5.1 reduces 3-SAT to the link-disabling problem: in one pod of
// a fat-tree, clause ToRs connect to the aggregation switches of their
// literals, helper ToRs tie each variable's literal pair together, and
// every literal's single aggregation-to-spine link is corrupting. A set
// of r corrupting links (one per variable) can be disabled while keeping
// every ToR connected to the spine iff the formula is satisfiable. This
// module materializes that gadget so the optimizer can be exercised as a
// (deliberately slow) SAT solver in tests and the hardness bench.
#pragma once

#include <array>
#include <vector>

#include "common/ids.h"
#include "corropt/capacity.h"
#include "topology/topology.h"

namespace corropt::core {

struct SatClause {
  // Literals as +v (variable v true) or -v (false); 1-based variables.
  std::array<int, 3> literals;
};

struct SatInstance {
  int num_vars = 0;
  std::vector<SatClause> clauses;
};

// Exhaustive satisfiability check; 2^num_vars, tests only.
[[nodiscard]] bool solve_sat_brute_force(const SatInstance& instance);

struct SatGadget {
  topology::Topology topo;
  // The corrupting link of each literal: index 2*(v-1) for +v and
  // 2*(v-1)+1 for -v.
  std::vector<common::LinkId> corrupting;
  // A constraint requiring every ToR to keep at least one spine path
  // (the connectivity requirement of Lemma A.1).
  CapacityConstraint connectivity;
};

// Builds the Lemma A.1 gadget for an instance with k >= r (clauses at
// least as numerous as variables, as the reduction assumes).
[[nodiscard]] SatGadget build_sat_gadget(const SatInstance& instance);

}  // namespace corropt::core
