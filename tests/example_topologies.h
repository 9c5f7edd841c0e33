// Reconstructions of the paper's worked examples (Figures 10, 11, 20),
// shared by tests and benches.
//
// The published figures are diagrams whose exact corrupting-link placement
// cannot be fully recovered from the text, so these instances are chosen
// to reproduce the figures' headline numbers: for Figure 10, switch-local
// checking with sc=c disables 8 links yet leaves the ToR below its 60%
// constraint, sc=sqrt(c) disables only 4, and the optimum disables 12
// while meeting the constraint exactly.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace corropt::testing {

struct Fig10Example {
  topology::Topology topo;
  common::SwitchId tor;                       // T
  std::vector<common::SwitchId> aggs;         // A..E
  std::vector<common::LinkId> tor_uplinks;    // T-A .. T-E
  // 16 corrupting links: T-A, T-B, all 5 uplinks of A and of B, and 4 of
  // C's 5 uplinks.
  std::vector<common::LinkId> corrupting;
};

inline Fig10Example make_fig10_example() {
  Fig10Example ex;
  topology::Topology& topo = ex.topo;
  ex.tor = topo.add_switch(0, "T");
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    ex.aggs.push_back(topo.add_switch(1, name));
  }
  std::vector<common::SwitchId> spines;
  for (int i = 0; i < 5; ++i) {
    std::string name = "S";  // Appended: GCC 12 -O3 -Wrestrict.
    name += std::to_string(i);
    spines.push_back(topo.add_switch(2, std::move(name)));
  }
  for (const common::SwitchId agg : ex.aggs) {
    ex.tor_uplinks.push_back(topo.add_link(ex.tor, agg));
  }
  // agg_uplinks[i] = the 5 spine links of agg i.
  std::vector<std::vector<common::LinkId>> agg_uplinks(5);
  for (std::size_t a = 0; a < ex.aggs.size(); ++a) {
    for (const common::SwitchId spine : spines) {
      agg_uplinks[a].push_back(topo.add_link(ex.aggs[a], spine));
    }
  }
  topo.validate();

  ex.corrupting.push_back(ex.tor_uplinks[0]);  // T-A
  ex.corrupting.push_back(ex.tor_uplinks[1]);  // T-B
  for (common::LinkId id : agg_uplinks[0]) ex.corrupting.push_back(id);
  for (common::LinkId id : agg_uplinks[1]) ex.corrupting.push_back(id);
  for (int i = 0; i < 4; ++i) ex.corrupting.push_back(agg_uplinks[2][i]);
  return ex;
}

struct Fig11Example {
  topology::Topology topo;
  std::vector<common::SwitchId> tors;  // G, H, I, J
  // Corrupting links: G-P and H-Q (safely disableable after pruning),
  // J-R and S-X (coupled through ToR J, which would violate a 50%
  // constraint if both were disabled).
  common::LinkId g_p, h_q, j_r, s_x;
  std::vector<common::LinkId> corrupting;
};

inline Fig11Example make_fig11_example() {
  Fig11Example ex;
  topology::Topology& topo = ex.topo;
  const auto g = topo.add_switch(0, "G");
  const auto h = topo.add_switch(0, "H");
  const auto i = topo.add_switch(0, "I");
  const auto j = topo.add_switch(0, "J");
  ex.tors = {g, h, i, j};
  const auto p = topo.add_switch(1, "P");
  const auto q = topo.add_switch(1, "Q");
  const auto r = topo.add_switch(1, "R");
  const auto s = topo.add_switch(1, "S");
  const auto x = topo.add_switch(2, "X");
  const auto y = topo.add_switch(2, "Y");

  ex.g_p = topo.add_link(g, p);
  topo.add_link(g, q);
  topo.add_link(h, p);
  ex.h_q = topo.add_link(h, q);
  topo.add_link(i, r);
  topo.add_link(i, s);
  ex.j_r = topo.add_link(j, r);
  topo.add_link(j, s);
  for (const auto agg : {p, q, r}) {
    topo.add_link(agg, x);
    topo.add_link(agg, y);
  }
  ex.s_x = topo.add_link(s, x);
  topo.add_link(s, y);
  topo.validate();

  ex.corrupting = {ex.g_p, ex.h_q, ex.j_r, ex.s_x};
  return ex;
}

}  // namespace corropt::testing
