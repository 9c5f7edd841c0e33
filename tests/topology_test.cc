#include <gtest/gtest.h>

#include <set>

#include "topology/fat_tree.h"
#include "topology/topology.h"
#include "topology/xgft.h"

namespace corropt::topology {
namespace {

Topology two_level_pair() {
  Topology topo;
  const SwitchId tor = topo.add_switch(0, "tor");
  const SwitchId spine = topo.add_switch(1, "spine");
  topo.add_link(tor, spine);
  topo.add_link(tor, spine);
  return topo;
}

TEST(Topology, AddSwitchAndLevels) {
  Topology topo;
  const SwitchId a = topo.add_switch(0);
  const SwitchId b = topo.add_switch(2);
  EXPECT_EQ(topo.switch_count(), 2u);
  EXPECT_EQ(topo.level_count(), 3);
  EXPECT_EQ(topo.top_level(), 2);
  EXPECT_EQ(topo.switches_at_level(0).size(), 1u);
  EXPECT_EQ(topo.switches_at_level(1).size(), 0u);
  EXPECT_EQ(topo.switch_at(a).level, 0);
  EXPECT_EQ(topo.switch_at(b).level, 2);
  EXPECT_EQ(topo.tors().front(), a);
}

TEST(Topology, LinksMaintainEndpointLists) {
  Topology topo = two_level_pair();
  const Switch& tor = topo.switch_at(SwitchId(0));
  const Switch& spine = topo.switch_at(SwitchId(1));
  EXPECT_EQ(tor.uplinks.size(), 2u);
  EXPECT_TRUE(tor.downlinks.empty());
  EXPECT_EQ(spine.downlinks.size(), 2u);
  EXPECT_TRUE(spine.uplinks.empty());
  topo.validate();
}

TEST(Topology, EnableDisableTracksCount) {
  Topology topo = two_level_pair();
  EXPECT_EQ(topo.enabled_link_count(), 2u);
  topo.set_enabled(LinkId(0), false);
  EXPECT_EQ(topo.enabled_link_count(), 1u);
  EXPECT_FALSE(topo.is_enabled(LinkId(0)));
  topo.set_enabled(LinkId(0), false);  // Idempotent.
  EXPECT_EQ(topo.enabled_link_count(), 1u);
  topo.set_enabled(LinkId(0), true);
  EXPECT_EQ(topo.enabled_link_count(), 2u);
}

TEST(Topology, DirectionHelpers) {
  Topology topo = two_level_pair();
  const LinkId link(0);
  const DirectionId up = direction_id(link, LinkDirection::kUp);
  const DirectionId down = direction_id(link, LinkDirection::kDown);
  EXPECT_NE(up, down);
  EXPECT_EQ(link_of(up), link);
  EXPECT_EQ(link_of(down), link);
  EXPECT_EQ(direction_of(up), LinkDirection::kUp);
  EXPECT_EQ(direction_of(down), LinkDirection::kDown);
  EXPECT_EQ(opposite(up), down);
  EXPECT_EQ(opposite(down), up);
  EXPECT_EQ(topo.transmitter(up), SwitchId(0));
  EXPECT_EQ(topo.transmitter(down), SwitchId(1));
}

TEST(Topology, BreakoutGroups) {
  Topology topo;
  const SwitchId tor = topo.add_switch(0);
  const SwitchId s1 = topo.add_switch(1);
  for (int i = 0; i < 6; ++i) topo.add_link(tor, s1);
  const int groups = topo.assign_breakout_groups(4);
  EXPECT_EQ(groups, 1);  // 6 uplinks: one full group of 4, 2 left over.
  const auto peers = topo.breakout_peers(LinkId(0));
  EXPECT_EQ(peers.size(), 4u);
  EXPECT_EQ(topo.breakout_peers(LinkId(5)).size(), 1u);  // Ungrouped.
}

TEST(Xgft, NodeAndLinkCounts) {
  // k=4 fat-tree: 8 ToRs, 8 Aggs, 4 spines; 16 + 16 links.
  const XgftSpec spec = fat_tree_spec(4);
  EXPECT_EQ(spec.nodes_at_level(0), 8u);
  EXPECT_EQ(spec.nodes_at_level(1), 8u);
  EXPECT_EQ(spec.nodes_at_level(2), 4u);
  EXPECT_EQ(spec.total_links(), 32u);
}

TEST(Xgft, BuildMatchesSpec) {
  const XgftSpec spec = fat_tree_spec(4);
  const Topology topo = build_xgft(spec);
  EXPECT_EQ(topo.switch_count(), 20u);
  EXPECT_EQ(topo.link_count(), 32u);
  EXPECT_EQ(topo.level_count(), 3);
  for (SwitchId tor : topo.tors()) {
    EXPECT_EQ(topo.switch_at(tor).uplinks.size(), 2u);
  }
  for (SwitchId agg : topo.switches_at_level(1)) {
    EXPECT_EQ(topo.switch_at(agg).uplinks.size(), 2u);
    EXPECT_EQ(topo.switch_at(agg).downlinks.size(), 2u);
  }
  for (SwitchId spine : topo.switches_at_level(2)) {
    EXPECT_EQ(topo.switch_at(spine).downlinks.size(), 4u);
  }
}

TEST(Xgft, PodStructureIsRespected) {
  // In a k=4 fat-tree, ToRs 0,1 form pod 0 and must share their two
  // aggregation switches; ToRs from different pods share no aggs.
  const Topology topo = build_fat_tree(4);
  auto aggs_of = [&topo](SwitchId tor) {
    std::set<SwitchId> aggs;
    for (LinkId id : topo.switch_at(tor).uplinks) {
      aggs.insert(topo.link_at(id).upper);
    }
    return aggs;
  };
  const auto& tors = topo.tors();
  EXPECT_EQ(aggs_of(tors[0]), aggs_of(tors[1]));
  EXPECT_NE(aggs_of(tors[0]), aggs_of(tors[2]));
}

TEST(Xgft, FourTierBuilds) {
  // Three tiers above the ToRs: used by the r-tier switch-local tests.
  XgftSpec spec;
  spec.children_per_node = {2, 2, 2};
  spec.parents_per_node = {2, 2, 2};
  const Topology topo = build_xgft(spec);
  EXPECT_EQ(topo.level_count(), 4);
  EXPECT_EQ(spec.nodes_at_level(0), 8u);
  EXPECT_EQ(spec.nodes_at_level(3), 8u);
  EXPECT_EQ(topo.link_count(), spec.total_links());
  topo.validate();
}

TEST(FatTree, PaperScaleLinkCounts) {
  // The paper's large DCN has O(35K) links and the medium one O(15K)
  // (Section 7.1); k=40 and k=32 fat-trees land in those ranges.
  EXPECT_EQ(fat_tree_spec(40).total_links(), 32000u);
  EXPECT_EQ(fat_tree_spec(32).total_links(), 16384u);
}

TEST(Clos, CustomSpec) {
  ClosSpec spec;
  spec.pods = 3;
  spec.tors_per_pod = 4;
  spec.aggs_per_pod = 2;
  spec.spine_group_size = 5;
  const Topology topo = build_clos(spec);
  EXPECT_EQ(topo.tors().size(), 12u);
  EXPECT_EQ(topo.switches_at_level(1).size(), 6u);
  EXPECT_EQ(topo.switches_at_level(2).size(), 10u);
  for (SwitchId tor : topo.tors()) {
    EXPECT_EQ(topo.switch_at(tor).uplinks.size(), 2u);
  }
  for (SwitchId agg : topo.switches_at_level(1)) {
    EXPECT_EQ(topo.switch_at(agg).uplinks.size(), 5u);
    EXPECT_EQ(topo.switch_at(agg).downlinks.size(), 4u);
  }
}

}  // namespace
}  // namespace corropt::topology
