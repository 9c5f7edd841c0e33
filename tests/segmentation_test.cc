#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "corropt/path_counter.h"
#include "corropt/segmentation.h"
#include "optimizer_oracles.h"
#include "topology/fat_tree.h"
#include "topology/xgft.h"

namespace corropt::core {
namespace {

// The segmenter's output as owned copies, to compare with the oracle.
std::vector<testing::OracleSegment> split(
    Segmenter& segmenter, PathCounter& paths,
    std::span<const common::LinkId> candidates,
    std::span<const common::SwitchId> endangered) {
  segmenter.split(paths, candidates, endangered);
  std::vector<testing::OracleSegment> segments;
  for (std::size_t i = 0; i < segmenter.size(); ++i) {
    const SegmentView view = segmenter.segment(i);
    segments.push_back({{view.links.begin(), view.links.end()},
                        {view.tors.begin(), view.tors.end()}});
  }
  return segments;
}

std::vector<testing::OracleSegment> segment_candidates(
    PathCounter& paths, std::span<const common::LinkId> candidates,
    std::span<const common::SwitchId> endangered) {
  Segmenter segmenter;
  return split(segmenter, paths, candidates, endangered);
}

TEST(Segmentation, EmptyInputs) {
  const auto topo = topology::build_fat_tree(4);
  PathCounter counter(topo);
  Segmenter segmenter;
  segmenter.split(counter, {}, {});
  EXPECT_EQ(segmenter.size(), 0u);
  EXPECT_TRUE(segmenter.safe().empty());
  const std::vector<common::LinkId> links = {common::LinkId(0)};
  // Candidates but no endangered ToRs: everything is "safe", no segment.
  segmenter.split(counter, links, {});
  EXPECT_EQ(segmenter.size(), 0u);
  EXPECT_TRUE(std::ranges::equal(segmenter.safe(), links));
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
  Segmenter segmenter;
  const auto segments = split(segmenter, counter, candidates, endangered);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].links,
            std::vector<common::LinkId>{topo.switch_at(tor0).uplinks[0]});
  EXPECT_EQ(segments[0].tors, endangered);
  EXPECT_TRUE(std::ranges::equal(
      segmenter.safe(),
      std::vector<common::LinkId>{topo.switch_at(other_pod_tor).uplinks[0]}));
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
  for (const testing::OracleSegment& segment : segments) {
    for (common::LinkId link : segment.links) covered.push_back(link);
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_TRUE(std::adjacent_find(covered.begin(), covered.end()) ==
              covered.end())
      << "segments must be disjoint";
  EXPECT_EQ(covered.size(), candidates.size());
}

// The word-AND pass must give the per-bit oracle's segments exactly:
// the same links and ToRs, in the same order, and as safe() the
// candidates no oracle segment holds. Seeded candidate and endangered
// sets, unsorted, each with two uplinks of one switch above an
// endangered ToR (two candidates on one lower endpoint) and sparse
// enough that some candidates are upstream of no endangered ToR; the
// first draw per topology has no endangered ToR at all. One segmenter
// serves every draw on every topology, and the candidate density swings
// from draw to draw, so its arrays grow and shrink under it: a split
// that read state left by an earlier one would show here.
TEST(Segmentation, WordAndMatchesPerBitOracle) {
  topology::XgftSpec spec;
  spec.children_per_node = {4, 3, 2};
  spec.parents_per_node = {3, 2, 2};
  topology::Topology xgft = topology::build_xgft(spec);
  xgft.assign_breakout_groups(2, 0);
  struct Case {
    std::string name;
    topology::Topology topo;
  };
  std::vector<Case> cases;
  cases.push_back({"fat_tree_k4", topology::build_fat_tree(4)});
  cases.push_back({"fat_tree_k8", topology::build_fat_tree(8)});
  cases.push_back({"medium_dcn", topology::build_medium_dcn()});
  cases.push_back({"xgft_breakout", std::move(xgft)});

  auto shuffle = [](auto& items, common::Rng& rng) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.uniform_index(i)]);
    }
  };
  std::size_t shared_lower_held = 0;
  std::size_t dropped_candidates = 0;
  std::size_t grew = 0;
  std::size_t shrank = 0;
  std::size_t previous = 0;
  Segmenter segmenter;
  for (Case& c : cases) {
    const topology::Topology& topo = c.topo;
    PathCounter paths(topo);
    common::Rng rng(0x5E6u + topo.link_count());
    const double tor_p = std::min(0.5, 6.0 / topo.tors().size());
    for (int draw = 0; draw < 12; ++draw) {
      const double density[] = {40.0, 160.0, 8.0};
      const double link_p =
          std::min(0.5, density[draw % 3] / topo.link_count());
      std::vector<common::SwitchId> endangered;
      if (draw > 0) {
        for (common::SwitchId tor : topo.tors()) {
          if (rng.bernoulli(tor_p)) endangered.push_back(tor);
        }
        if (endangered.empty()) {
          endangered.push_back(
              topo.tors()[rng.uniform_index(topo.tors().size())]);
        }
      }
      std::vector<common::LinkId> candidates;
      for (const topology::Link& link : topo.links()) {
        if (rng.bernoulli(link_p)) candidates.push_back(link.id);
      }
      // Climb from an endangered ToR (any ToR on the first draw) to a
      // switch below the top level and add two of its uplinks.
      common::SwitchId shared = endangered.empty()
                                    ? topo.tors().front()
                                    : endangered.front();
      for (std::size_t up = rng.uniform_index(
               static_cast<std::uint64_t>(topo.top_level()));
           up > 0; --up) {
        const topology::Switch& sw = topo.switch_at(shared);
        shared = topo.link_at(sw.uplinks[rng.uniform_index(sw.uplinks.size())])
                     .upper;
      }
      const topology::Switch& sw = topo.switch_at(shared);
      ASSERT_GE(sw.uplinks.size(), 2u) << c.name;
      for (common::LinkId uplink : {sw.uplinks[0], sw.uplinks[1]}) {
        if (std::find(candidates.begin(), candidates.end(), uplink) ==
            candidates.end()) {
          candidates.push_back(uplink);
        }
      }
      shuffle(candidates, rng);
      shuffle(endangered, rng);

      const std::vector<testing::OracleSegment> got =
          split(segmenter, paths, candidates, endangered);
      const std::vector<testing::OracleSegment> want =
          testing::segment_candidates_per_bit(paths, candidates, endangered);
      grew += candidates.size() > previous ? 1 : 0;
      shrank += candidates.size() < previous ? 1 : 0;
      previous = candidates.size();
      std::vector<common::LinkId> safe = candidates;
      std::sort(safe.begin(), safe.end());
      for (const testing::OracleSegment& segment : want) {
        for (common::LinkId link : segment.links) {
          safe.erase(std::lower_bound(safe.begin(), safe.end(), link));
        }
      }
      EXPECT_TRUE(std::ranges::equal(segmenter.safe(), safe))
          << c.name << " draw " << draw;
      ASSERT_EQ(got.size(), want.size()) << c.name << " draw " << draw;
      std::size_t held = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].links, want[i].links)
            << c.name << " draw " << draw << " segment " << i;
        EXPECT_EQ(got[i].tors, want[i].tors)
            << c.name << " draw " << draw << " segment " << i;
        held += got[i].links.size();
        const auto on_shared = std::count_if(
            got[i].links.begin(), got[i].links.end(),
            [&](common::LinkId link) {
              return topo.link_at(link).lower == shared;
            });
        if (on_shared >= 2) ++shared_lower_held;
      }
      if (endangered.empty()) {
        EXPECT_TRUE(got.empty()) << c.name;
      }
      dropped_candidates += candidates.size() - held;
    }
  }
  // The draws reached both cases the chains and the safe split exist for,
  // and the candidate sets both grew and shrank between splits.
  EXPECT_GE(shared_lower_held, 4u * 11u);
  EXPECT_GT(dropped_candidates, 0u);
  EXPECT_GE(grew, 4u * 4u);
  EXPECT_GE(shrank, 4u * 4u);
}

}  // namespace
}  // namespace corropt::core
