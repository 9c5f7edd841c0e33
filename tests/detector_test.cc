#include <gtest/gtest.h>

#include <optional>

#include "common/lossy.h"
#include "common/rng.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "telemetry/detector.h"
#include "telemetry/monitor.h"
#include "topology/fat_tree.h"

namespace corropt::telemetry {
namespace {

using topology::LinkDirection;

PollSample make_sample(common::DirectionId dir, std::uint64_t packets,
                       std::uint64_t drops, common::SimTime time = 0) {
  PollSample sample;
  sample.direction = dir;
  sample.packets = packets;
  sample.corruption_drops = drops;
  sample.time = time;
  return sample;
}

constexpr int kWindow = CorruptionDetector::kWindowPolls;

// Feeds one full window of polls carrying `packets` and `drops` in total
// (both spread evenly; the last poll takes the remainders) and returns
// the verdict the window's last poll produced.
std::optional<DetectionEvent> observe_window(CorruptionDetector& detector,
                                             common::DirectionId dir,
                                             std::uint64_t packets,
                                             std::uint64_t drops) {
  for (int i = 0; i + 1 < kWindow; ++i) {
    EXPECT_FALSE(
        detector.observe(make_sample(dir, packets / kWindow, drops / kWindow)));
  }
  return detector.observe(
      make_sample(dir, packets - (kWindow - 1) * (packets / kWindow),
                  drops - (kWindow - 1) * (drops / kWindow)));
}

struct Fixture {
  Fixture() : topo(topology::build_fat_tree(4)) {}
  topology::Topology topo;
};

TEST(Detector, DetectsAfterFullWindow) {
  Fixture f;
  ASSERT_EQ(kWindow, 4);
  CorruptionDetector detector(f.topo);
  const auto dir = topology::direction_id(common::LinkId(0),
                                          LinkDirection::kUp);
  // 3 polls: no verdict yet.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(detector.observe(make_sample(dir, 1000000, 100)));
  }
  const auto event = detector.observe(make_sample(dir, 1000000, 100, 42));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, DetectionEvent::Kind::kCorrupting);
  EXPECT_EQ(event->link, common::LinkId(0));
  EXPECT_NEAR(event->loss_rate, 1e-4, 1e-9);
  EXPECT_EQ(event->time, 42);
  // The link stays corrupting: the next full window repeats no verdict.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(detector.observe(make_sample(dir, 1000000, 100)));
  }
}

TEST(Detector, IgnoresLowTrafficWindows) {
  Fixture f;
  CorruptionDetector detector(f.topo);
  const auto dir = topology::direction_id(common::LinkId(1),
                                          LinkDirection::kUp);
  // One corrupt frame on a near-idle link: rate 1e-2 but meaningless.
  EXPECT_FALSE(observe_window(detector, dir, 100, 1));
  // Just under the packet floor: still no verdict at rate 1e-4.
  EXPECT_FALSE(observe_window(
      detector, dir, CorruptionDetector::kMinWindowPackets - 1, 99));
  // Nothing was flagged: a busy lossy window still flips the link.
  const auto event = observe_window(
      detector, dir, CorruptionDetector::kMinWindowPackets, 100);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, DetectionEvent::Kind::kCorrupting);
}

TEST(Detector, CleanLinkNeverFlagged) {
  Fixture f;
  CorruptionDetector detector(f.topo);
  const auto dir = topology::direction_id(common::LinkId(2),
                                          LinkDirection::kUp);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(observe_window(detector, dir, 40000000, 0));
  }
}

TEST(Detector, HysteresisPreventsFlapping) {
  Fixture f;
  ASSERT_EQ(common::kLossyThreshold, 1e-8);
  ASSERT_EQ(common::kClearThreshold, 5e-9);
  CorruptionDetector detector(f.topo);
  const auto dir = topology::direction_id(common::LinkId(3),
                                          LinkDirection::kUp);
  // 2e-8: flagged.
  auto event = observe_window(detector, dir, 100000000, 2);
  ASSERT_TRUE(event.has_value());
  // 0.8e-8: inside the hysteresis band, still corrupting, no event.
  EXPECT_FALSE(observe_window(detector, dir, 1000000000, 8));
  // 0.1e-8: below the clear threshold: cleared (so it was corrupting).
  event = observe_window(detector, dir, 1000000000, 1);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, DetectionEvent::Kind::kCleared);
  // Clean again: 2e-8 flags it anew.
  event = observe_window(detector, dir, 100000000, 2);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, DetectionEvent::Kind::kCorrupting);
}

TEST(Detector, LinkLevelVerdictCombinesDirections) {
  Fixture f;
  CorruptionDetector detector(f.topo);
  const common::LinkId link(4);
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  // Corruption only on the down direction; the link is flagged either
  // way (the disable decision is per link).
  EXPECT_FALSE(observe_window(detector, up, 10000000, 0));
  const auto event = observe_window(detector, down, 10000000, 1000);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->link, link);
  EXPECT_NEAR(event->loss_rate, 1e-4, 1e-9);
}

TEST(Detector, EndToEndWithMonitorAndFault) {
  // Full pipeline: fault -> physics -> polls -> detection.
  auto topo = topology::build_fat_tree(4);
  NetworkState state(topo, default_tech());
  faults::FaultInjector injector(state);
  common::Rng rng(5);
  faults::FaultFactory factory(topo, {}, rng);
  const common::LinkId link(7);
  // Force a high-rate fault so one detection window suffices.
  faults::Fault fault =
      factory.make_fault(link, faults::RootCause::kBadOrLooseTransceiver, 0);
  for (auto& effect : fault.effects) effect.corruption_rate = 1e-3;
  injector.inject(std::move(fault));

  PollingMonitor monitor(state, rng);
  CorruptionDetector detector(topo);
  DirectionLoad load;
  load.utilization = 0.3;
  bool detected = false;
  for (int epoch = 0; epoch < 8 && !detected; ++epoch) {
    for (std::size_t i = 0; i < topo.direction_count(); ++i) {
      const common::DirectionId dir(
          static_cast<common::DirectionId::underlying_type>(i));
      const auto event = detector.observe(
          monitor.poll_direction(dir, epoch * common::kPollInterval, load));
      if (event.has_value() &&
          event->kind == DetectionEvent::Kind::kCorrupting) {
        EXPECT_EQ(event->link, link);
        EXPECT_NEAR(event->loss_rate, 1e-3, 2e-4);
        detected = true;
      }
    }
  }
  EXPECT_TRUE(detected);
}

}  // namespace
}  // namespace corropt::telemetry
