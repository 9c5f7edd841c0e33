#include <gtest/gtest.h>

#include <algorithm>

#include "corropt/path_counter.h"
#include "corropt/segmentation.h"
#include "topology/fat_tree.h"

namespace corropt::core {
namespace {

TEST(Segmentation, EmptyInputs) {
  const auto topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  EXPECT_TRUE(segment_candidates(counter, {}, {}).empty());
  const std::vector<common::LinkId> links = {common::LinkId(0)};
  // Candidates but no endangered ToRs: everything is "safe", no segment.
  EXPECT_TRUE(segment_candidates(counter, links, {}).empty());
}

TEST(Segmentation, SafeLinksAreDropped) {
  const auto topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  const auto tor0 = topo.tors()[0];
  const auto other_pod_tor = topo.tors()[2];
  const std::vector<common::LinkId> candidates = {
      topo.switch_at(tor0).uplinks[0],
      topo.switch_at(other_pod_tor).uplinks[0],
  };
  const std::vector<common::SwitchId> endangered = {tor0};
  const auto segments = segment_candidates(counter, candidates, endangered);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].links,
            std::vector<common::LinkId>{topo.switch_at(tor0).uplinks[0]});
  EXPECT_EQ(segments[0].tors, endangered);
}

TEST(Segmentation, SharedTorMergesSegments) {
  // Two candidates on different aggs of the same pod are coupled through
  // any endangered ToR of that pod.
  const auto topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  const auto tor = topo.tors()[0];
  const auto agg0 = topo.link_at(topo.switch_at(tor).uplinks[0]).upper;
  const auto agg1 = topo.link_at(topo.switch_at(tor).uplinks[1]).upper;
  const std::vector<common::LinkId> candidates = {
      topo.switch_at(agg0).uplinks[0], topo.switch_at(agg1).uplinks[0]};
  const std::vector<common::SwitchId> endangered = {tor};
  const auto segments = segment_candidates(counter, candidates, endangered);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].links.size(), 2u);
}

TEST(Segmentation, TorWithoutUpstreamCandidatesIsDropped) {
  const auto topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  const auto tor0 = topo.tors()[0];
  const auto tor_far = topo.tors()[4];  // Different pod.
  const std::vector<common::LinkId> candidates = {
      topo.switch_at(tor0).uplinks[0]};
  const std::vector<common::SwitchId> endangered = {tor0, tor_far};
  const auto segments = segment_candidates(counter, candidates, endangered);
  ASSERT_EQ(segments.size(), 1u);
  // tor_far has no candidate upstream: it appears in no segment.
  EXPECT_EQ(segments[0].tors, std::vector<common::SwitchId>{tor0});
}

TEST(Segmentation, PartitionIsExhaustiveAndDisjoint) {
  // Every candidate upstream of some endangered ToR lands in exactly one
  // segment; segments share no links.
  const auto topo = topology::build_fat_tree(8);
  PathCounter counter(topo);
  std::vector<common::LinkId> candidates;
  std::vector<common::SwitchId> endangered;
  for (int pod = 0; pod < 3; ++pod) {
    const auto tor = topo.tors()[static_cast<std::size_t>(4 * pod)];
    endangered.push_back(tor);
    candidates.push_back(topo.switch_at(tor).uplinks[0]);
    candidates.push_back(topo.switch_at(tor).uplinks[1]);
  }
  const auto segments = segment_candidates(counter, candidates, endangered);
  EXPECT_EQ(segments.size(), 3u);
  std::vector<common::LinkId> covered;
  for (const Segment& segment : segments) {
    for (common::LinkId link : segment.links) covered.push_back(link);
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_TRUE(std::adjacent_find(covered.begin(), covered.end()) ==
              covered.end())
      << "segments must be disjoint";
  EXPECT_EQ(covered.size(), candidates.size());
}

}  // namespace
}  // namespace corropt::core
