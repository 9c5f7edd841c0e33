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

TEST(TorClosureCache, MatchesUpstreamLinks) {
  // The memoized per-ToR switch set (used by the optimizer for pruning
  // and segmentation) must select exactly the uncached upstream link
  // sweep, disabled links included: a link is upstream of the ToR iff
  // its lower endpoint is in the set.
  auto topo = topology::build_fat_tree(4);
  topo.set_enabled(topo.switch_at(topo.tors()[0]).uplinks[0], false);
  PathCounter counter(topo);
  TorClosureCache cache(counter);
  for (common::SwitchId tor : topo.tors()) {
    const common::DynamicBitset switches = cache.closure(tor);
    ASSERT_EQ(switches.size(), topo.switch_count());
    EXPECT_TRUE(switches.test(tor.index())) << "tor " << tor.value();
    const LinkMask direct = counter.upstream_links({&tor, 1});
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      const common::LinkId link(
          static_cast<common::LinkId::underlying_type>(i));
      EXPECT_EQ(switches.test(topo.link_at(link).lower.index()),
                direct.test(i))
          << "tor " << tor.value() << " link " << i;
    }
    // Second lookup serves the memo and must be identical.
    EXPECT_TRUE(cache.closure(tor) == switches);
  }
}

TEST(TorClosureCache, SegmentsMatchUncachedPath) {
  const auto topo = topology::build_fat_tree(8);
  PathCounter counter(topo);
  TorClosureCache cache(counter);
  std::vector<common::LinkId> candidates;
  std::vector<common::SwitchId> endangered;
  for (int pod = 0; pod < 3; ++pod) {
    const auto tor = topo.tors()[static_cast<std::size_t>(4 * pod)];
    endangered.push_back(tor);
    candidates.push_back(topo.switch_at(tor).uplinks[0]);
    candidates.push_back(topo.switch_at(tor).uplinks[1]);
  }
  const auto plain = segment_candidates(counter, candidates, endangered);
  const auto cached =
      segment_candidates(counter, candidates, endangered, &cache);
  ASSERT_EQ(plain.size(), cached.size());
  for (std::size_t s = 0; s < plain.size(); ++s) {
    EXPECT_EQ(plain[s].links, cached[s].links);
    EXPECT_EQ(plain[s].tors, cached[s].tors);
  }
}

}  // namespace
}  // namespace corropt::core
