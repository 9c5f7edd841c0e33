#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::trace {
namespace {

TEST(TraceGenerator, ArrivalRateMatchesConfig) {
  const auto topo = topology::build_fat_tree(8);  // 256 links
  common::Rng rng(1);
  TraceParams params;
  params.faults_per_link_per_day = 0.01;
  params.duration = 200 * common::kDay;
  CorruptionTraceGenerator generator(topo, params, rng);
  const auto events = generator.generate();
  const double expected = 0.01 * 256 * 200;
  EXPECT_NEAR(static_cast<double>(events.size()), expected,
              4.0 * std::sqrt(expected));
}

TEST(TraceGenerator, EventsSortedAndInRange) {
  const auto topo = topology::build_fat_tree(4);
  common::Rng rng(2);
  TraceParams params;
  params.faults_per_link_per_day = 0.1;
  params.duration = 30 * common::kDay;
  const auto events = CorruptionTraceGenerator(topo, params, rng).generate();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
  for (const TraceEvent& event : events) {
    EXPECT_GE(event.time, 0);
    EXPECT_LT(event.time, params.duration);
    EXPECT_FALSE(event.fault.links.empty());
    for (common::LinkId link : event.fault.links) {
      EXPECT_LT(link.index(), topo.link_count());
    }
    EXPECT_FALSE(event.fault.effects.empty());
    EXPECT_FALSE(event.fault.fixing_actions.empty());
    EXPECT_EQ(event.fault.onset, event.time);
  }
}

TEST(TraceGenerator, DeterministicGivenSeed) {
  const auto topo = topology::build_fat_tree(4);
  TraceParams params;
  params.duration = 60 * common::kDay;
  params.faults_per_link_per_day = 0.05;
  common::Rng rng_a(42), rng_b(42);
  const auto a = CorruptionTraceGenerator(topo, params, rng_a).generate();
  const auto b = CorruptionTraceGenerator(topo, params, rng_b).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].fault.cause, b[i].fault.cause);
    EXPECT_EQ(a[i].fault.links, b[i].fault.links);
  }
}

}  // namespace
}  // namespace corropt::trace
