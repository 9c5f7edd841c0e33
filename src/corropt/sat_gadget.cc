#include "corropt/sat_gadget.h"

#include <cassert>
#include <cmath>
#include <string>

namespace corropt::core {

namespace {

// `prefix` followed by `n` in decimal, built by appending: GCC 12 at -O3
// warns -Wrestrict on `"literal" + std::to_string(n)`.
std::string numbered(const char* prefix, int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace

bool solve_sat_brute_force(const SatInstance& instance) {
  assert(instance.num_vars <= 20);
  const std::uint32_t limit = 1u << instance.num_vars;
  for (std::uint32_t assignment = 0; assignment < limit; ++assignment) {
    bool all = true;
    for (const SatClause& clause : instance.clauses) {
      bool any = false;
      for (int literal : clause.literals) {
        const int var = std::abs(literal);
        const bool value = ((assignment >> (var - 1)) & 1u) != 0;
        if ((literal > 0) == value) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

SatGadget build_sat_gadget(const SatInstance& instance) {
  const int r = instance.num_vars;
  const int k = static_cast<int>(instance.clauses.size());
  assert(r >= 1);
  assert(k >= r && "the reduction assumes at least as many clauses as vars");

  // Connectivity only: every ToR must keep at least one path to the
  // spine. A tiny fractional constraint makes min_paths == 1 regardless
  // of the ToR's design path count.
  SatGadget gadget{topology::Topology{}, {}, CapacityConstraint(1e-9)};
  topology::Topology& topo = gadget.topo;

  // Aggregation switches: X_v and notX_v for each variable.
  std::vector<common::SwitchId> literal_agg(
      static_cast<std::size_t>(2 * r));
  for (int v = 1; v <= r; ++v) {
    literal_agg[static_cast<std::size_t>(2 * (v - 1))] =
        topo.add_switch(1, numbered("X", v));
    literal_agg[static_cast<std::size_t>(2 * (v - 1) + 1)] =
        topo.add_switch(1, numbered("notX", v));
  }

  // Clause ToRs: C_i links to the aggs of its three literals.
  for (int i = 0; i < k; ++i) {
    const common::SwitchId clause_tor =
        topo.add_switch(0, numbered("C", i + 1));
    for (int literal : instance.clauses[static_cast<std::size_t>(i)].literals) {
      const int var = std::abs(literal);
      assert(var >= 1 && var <= r);
      const std::size_t index =
          static_cast<std::size_t>(2 * (var - 1) + (literal < 0 ? 1 : 0));
      topo.add_link(clause_tor, literal_agg[index]);
    }
  }

  // Helper ToRs: H_1..H_r tie X_j to notX_j; H_{r+1}..H_k tie X_1 pair.
  for (int j = 1; j <= k; ++j) {
    const common::SwitchId helper =
        topo.add_switch(0, numbered("H", j));
    const int var = j <= r ? j : 1;
    topo.add_link(helper, literal_agg[static_cast<std::size_t>(2 * (var - 1))]);
    topo.add_link(helper,
                  literal_agg[static_cast<std::size_t>(2 * (var - 1) + 1)]);
  }

  // Spine: one switch per literal agg; the single uplink is the
  // corrupting link of that literal (the set L of Lemma A.1).
  gadget.corrupting.reserve(static_cast<std::size_t>(2 * r));
  for (int index = 0; index < 2 * r; ++index) {
    const common::SwitchId spine =
        topo.add_switch(2, numbered("S", index));
    gadget.corrupting.push_back(
        topo.add_link(literal_agg[static_cast<std::size_t>(index)], spine));
  }

  topo.validate();
  return gadget;
}

}  // namespace corropt::core
