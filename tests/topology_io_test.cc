#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "topology/fat_tree.h"
#include "topology/io.h"
#include "topology/xgft.h"

namespace corropt::topology {
namespace {

TEST(TopologyIo, RoundTripPreservesEverything) {
  Topology original = build_fat_tree(8);
  original.assign_breakout_groups(2, 0);
  original.set_enabled(common::LinkId(3), false);
  original.set_enabled(common::LinkId(100), false);

  std::stringstream buffer;
  write_topology(buffer, original);
  std::string error;
  const auto parsed = read_topology(buffer, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  ASSERT_EQ(parsed->switch_count(), original.switch_count());
  ASSERT_EQ(parsed->link_count(), original.link_count());
  EXPECT_EQ(parsed->level_count(), original.level_count());
  EXPECT_EQ(parsed->enabled_link_count(), original.enabled_link_count());
  for (std::size_t i = 0; i < original.switch_count(); ++i) {
    const common::SwitchId id(
        static_cast<common::SwitchId::underlying_type>(i));
    EXPECT_EQ(parsed->switch_at(id).level, original.switch_at(id).level);
    EXPECT_EQ(parsed->switch_at(id).pod, original.switch_at(id).pod);
    EXPECT_EQ(parsed->switch_at(id).name, original.switch_at(id).name);
    EXPECT_EQ(parsed->switch_at(id).uplinks, original.switch_at(id).uplinks);
  }
  for (std::size_t i = 0; i < original.link_count(); ++i) {
    const common::LinkId id(
        static_cast<common::LinkId::underlying_type>(i));
    EXPECT_EQ(parsed->link_at(id).lower, original.link_at(id).lower);
    EXPECT_EQ(parsed->link_at(id).upper, original.link_at(id).upper);
    EXPECT_EQ(parsed->is_enabled(id), original.is_enabled(id));
    EXPECT_EQ(parsed->link_at(id).breakout_group,
              original.link_at(id).breakout_group);
  }
}

TEST(TopologyIo, EmptyInputYieldsEmptyTopology) {
  std::stringstream buffer;
  const auto parsed = read_topology(buffer);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->switch_count(), 0u);
}

TEST(TopologyIo, NamesWithCommasSurvive) {
  Topology original;
  const auto a = original.add_switch(0, "tor-1,rack \"A\"");
  const auto b = original.add_switch(1, "agg,1");
  original.add_link(a, b);
  std::stringstream buffer;
  write_topology(buffer, original);
  const auto parsed = read_topology(buffer);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->switch_at(a).name, "tor-1,rack \"A\"");
}

struct BadInput {
  const char* name;
  const char* text;
};

class TopologyIoErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(TopologyIoErrorTest, RejectsMalformedInput) {
  std::stringstream buffer(GetParam().text);
  std::string error;
  EXPECT_FALSE(read_topology(buffer, &error).has_value());
  EXPECT_FALSE(error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, TopologyIoErrorTest,
    ::testing::Values(
        BadInput{"unsupported_row_kind", "host,0,0,0,h\n"},
        BadInput{"sparse_switch_ids", "switch,0,0,0,a\nswitch,2,1,0,b\n"},
        BadInput{"switch_after_link",
                 "switch,0,0,0,a\nswitch,1,1,0,b\nlink,0,0,1,1,-1\n"
                 "switch,2,0,0,c\n"},
        BadInput{"link_unknown_switch",
                 "switch,0,0,0,a\nswitch,1,1,0,b\nlink,0,0,9,1,-1\n"},
        BadInput{"link_non_adjacent",
                 "switch,0,0,0,a\nswitch,1,2,0,b\nlink,0,0,1,1,-1\n"},
        BadInput{"short_switch_row", "switch,0,0\n"},
        BadInput{"non_numeric_switch_id", "switch,zero,0,0,a\n"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace corropt::topology

namespace corropt::topology {
namespace {

class RandomRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomRoundTripTest, ArbitraryStatesSurvive) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 311 + 9);
  XgftSpec spec;
  const int height = 2 + static_cast<int>(rng.uniform_index(2));
  for (int i = 0; i < height; ++i) {
    spec.children_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
    spec.parents_per_node.push_back(
        1 + static_cast<int>(rng.uniform_index(3)));
  }
  Topology original = build_xgft(spec);
  if (rng.bernoulli(0.5)) original.assign_breakout_groups(2, 0);
  for (std::size_t i = 0; i < original.link_count(); ++i) {
    if (rng.bernoulli(0.3)) {
      original.set_enabled(
          common::LinkId(static_cast<common::LinkId::underlying_type>(i)),
          false);
    }
  }

  std::stringstream buffer;
  write_topology(buffer, original);
  std::string error;
  const auto parsed = read_topology(buffer, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->link_count(), original.link_count());
  EXPECT_EQ(parsed->enabled_link_count(), original.enabled_link_count());
  for (std::size_t i = 0; i < original.link_count(); ++i) {
    const common::LinkId id(
        static_cast<common::LinkId::underlying_type>(i));
    EXPECT_EQ(parsed->is_enabled(id), original.is_enabled(id));
    EXPECT_EQ(parsed->link_at(id).breakout_group,
              original.link_at(id).breakout_group);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, RandomRoundTripTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace corropt::topology
