// detect::ThresholdBackend: the paper's SNMP polls and windowed 1e-8
// threshold detector. Crafted windows go through observe(), the
// per-direction step poll() runs; whole cycles go through poll().
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/lossy.h"
#include "common/rng.h"
#include "detect/threshold.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "obs/metrics.h"
#include "telemetry/monitor.h"
#include "topology/fat_tree.h"

namespace corropt::detect {
namespace {

using topology::LinkDirection;

constexpr int kWindow = ThresholdBackend::kWindowPolls;
// Packets an enabled direction carries in one poll.
const auto kPollPackets = static_cast<std::uint64_t>(
    telemetry::kPacketsPerPoll * kPollUtilization);

// Feeds one full window of polls carrying `packets` and `drops` in total
// (both spread evenly; the last poll takes the remainders) and returns
// the verdict the window's last poll produced.
std::optional<Verdict> observe_window(ThresholdBackend& backend,
                                      common::DirectionId dir,
                                      std::uint64_t packets,
                                      std::uint64_t drops) {
  for (int i = 0; i + 1 < kWindow; ++i) {
    EXPECT_FALSE(backend.observe(dir, packets / kWindow, drops / kWindow));
  }
  return backend.observe(dir, packets - (kWindow - 1) * (packets / kWindow),
                         drops - (kWindow - 1) * (drops / kWindow));
}

struct Fixture {
  Fixture()
      : topo(topology::build_fat_tree(4)),
        state(topo, telemetry::default_tech()) {
    env.topo = &topo;
    env.state = &state;
    env.rng = &rng;
  }

  // One poll cycle over `suspects`; returns its verdicts in order.
  std::vector<Verdict> poll(ThresholdBackend& backend,
                            const std::vector<common::LinkId>& suspects,
                            common::SimTime now = 0) {
    std::vector<Verdict> verdicts;
    backend.poll(now, suspects,
                 [&verdicts](const Verdict& v) { verdicts.push_back(v); });
    return verdicts;
  }

  [[nodiscard]] std::vector<common::LinkId> every_link() const {
    std::vector<common::LinkId> links;
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      links.emplace_back(static_cast<common::LinkId::underlying_type>(i));
    }
    return links;
  }

  topology::Topology topo;
  telemetry::NetworkState state;
  common::Rng rng{5};
  BackendEnv env;
};

TEST(Detector, DetectsAfterFullWindow) {
  Fixture f;
  ASSERT_EQ(kWindow, 4);
  ThresholdBackend backend(f.env);
  const auto dir = topology::direction_id(common::LinkId(0),
                                          LinkDirection::kUp);
  // 3 polls: no verdict yet.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(backend.observe(dir, 1000000, 100));
  }
  const auto verdict = backend.observe(dir, 1000000, 100);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, Verdict::Kind::kCorrupting);
  EXPECT_EQ(verdict->link, common::LinkId(0));
  EXPECT_NEAR(verdict->loss_rate, 1e-4, 1e-9);
  // The link stays corrupting: the next full window repeats no verdict.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(backend.observe(dir, 1000000, 100));
  }
}

TEST(Detector, IgnoresLowTrafficWindows) {
  Fixture f;
  ThresholdBackend backend(f.env);
  const auto dir = topology::direction_id(common::LinkId(1),
                                          LinkDirection::kUp);
  // One corrupt frame on a near-idle link: rate 1e-2 but meaningless.
  EXPECT_FALSE(observe_window(backend, dir, 100, 1));
  // Just under the packet floor: still no verdict at rate 1e-4.
  EXPECT_FALSE(observe_window(backend, dir,
                              ThresholdBackend::kMinWindowPackets - 1, 99));
  // Nothing was flagged: a busy lossy window still flips the link.
  const auto verdict = observe_window(
      backend, dir, ThresholdBackend::kMinWindowPackets, 100);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, Verdict::Kind::kCorrupting);
}

TEST(Detector, CleanLinkNeverFlagged) {
  Fixture f;
  ThresholdBackend backend(f.env);
  const auto dir = topology::direction_id(common::LinkId(2),
                                          LinkDirection::kUp);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(observe_window(backend, dir, 40000000, 0));
  }
  // Polled: a healthy link draws no drops and is never flagged.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(f.poll(backend, {common::LinkId(2)}).empty());
  }
}

TEST(Detector, HysteresisPreventsFlapping) {
  Fixture f;
  ASSERT_EQ(common::kLossyThreshold, 1e-8);
  ASSERT_EQ(common::kClearThreshold, 5e-9);
  ThresholdBackend backend(f.env);
  const auto dir = topology::direction_id(common::LinkId(3),
                                          LinkDirection::kUp);
  // 2e-8: flagged.
  auto verdict = observe_window(backend, dir, 100000000, 2);
  ASSERT_TRUE(verdict.has_value());
  // 0.8e-8: inside the hysteresis band, still corrupting, no verdict.
  EXPECT_FALSE(observe_window(backend, dir, 1000000000, 8));
  // 0.1e-8: below the clear threshold: cleared (so it was corrupting).
  verdict = observe_window(backend, dir, 1000000000, 1);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, Verdict::Kind::kCleared);
  // Clean again: 2e-8 flags it anew.
  verdict = observe_window(backend, dir, 100000000, 2);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, Verdict::Kind::kCorrupting);
}

TEST(Detector, LinkLevelVerdictCombinesDirections) {
  Fixture f;
  ThresholdBackend backend(f.env);
  const common::LinkId link(4);
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  // Corruption only on the down direction; the link is flagged either
  // way (the disable decision is per link).
  EXPECT_FALSE(observe_window(backend, up, 10000000, 0));
  const auto verdict = observe_window(backend, down, 10000000, 1000);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->link, link);
  EXPECT_NEAR(verdict->loss_rate, 1e-4, 1e-9);
}

TEST(Detector, EndToEndWithMonitorAndFault) {
  // Full pipeline: fault -> physics -> polls -> detection.
  Fixture f;
  faults::FaultInjector injector(f.state);
  faults::FaultFactory factory(f.topo, {}, f.rng);
  const common::LinkId link(7);
  // Force a high-rate fault so one detection window suffices.
  faults::Fault fault =
      factory.make_fault(link, faults::RootCause::kBadOrLooseTransceiver, 0);
  for (auto& effect : fault.effects) effect.corruption_rate = 1e-3;
  injector.inject(std::move(fault));

  ThresholdBackend backend(f.env);
  bool detected = false;
  for (int epoch = 0; epoch < 8 && !detected; ++epoch) {
    for (const Verdict& verdict :
         f.poll(backend, f.every_link(), epoch * common::kPollInterval)) {
      EXPECT_EQ(verdict.kind, Verdict::Kind::kCorrupting);
      EXPECT_EQ(verdict.link, link);
      EXPECT_NEAR(verdict.loss_rate, 1e-3, 2e-4);
      detected = true;
    }
  }
  EXPECT_TRUE(detected);
}

// One poll of a direction carries kPacketsPerPoll at kPollUtilization,
// the same packets as the study's 15-minute keyed sample, and drops
// Poisson(packets * rate) drawn from the shared sim stream: a clean
// direction draws nothing, so a copy of the stream predicts the
// window's rate exactly.
TEST(Monitor, CountsMatchLoadAndRates) {
  Fixture f;
  const common::LinkId link(0);
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  f.state.direction(up).corruption_rate = 1e-3;

  telemetry::DirectionLoad load;
  load.utilization = kPollUtilization;
  EXPECT_EQ(kPollPackets,
            telemetry::sample_direction_keyed(f.state, up, 0,
                                              common::kPollInterval, load, 5)
                .packets);

  obs::MetricsRegistry registry;
  obs::Sink sink;
  sink.metrics = &registry;
  ThresholdBackend backend(f.env);
  backend.attach_sink(&sink);
  common::Rng replica = f.rng;
  std::uint64_t drops = 0;
  std::vector<Verdict> verdicts;
  for (int i = 0; i < kWindow; ++i) {
    drops += replica.poisson(static_cast<double>(kPollPackets) * 1e-3);
    verdicts = f.poll(backend, {link}, i * common::kPollInterval);
  }
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].loss_rate,
            static_cast<double>(drops) /
                static_cast<double>(kWindow * kPollPackets));
  EXPECT_NEAR(verdicts[0].loss_rate, 1e-3, 1e-4);
  EXPECT_EQ(f.rng(), replica());

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 4u);
  EXPECT_EQ(snapshot.counters[0].name, "telemetry.polls");
  EXPECT_EQ(snapshot.counters[0].value, 2u * kWindow);
  EXPECT_EQ(snapshot.counters[1].name, "telemetry.poll_cycles");
  EXPECT_EQ(snapshot.counters[1].value, 0u);
  EXPECT_EQ(snapshot.counters[2].name, "telemetry.detections");
  EXPECT_EQ(snapshot.counters[2].value, 1u);
  EXPECT_EQ(snapshot.counters[3].name, "telemetry.clears");
  EXPECT_EQ(snapshot.counters[3].value, 0u);
}

// A disabled link carries no traffic: its polls draw nothing and its
// windows never hold enough packets for a verdict, however lossy it is.
// The study's keyed sample still reports its optics (lasers stay on).
TEST(Monitor, DisabledLinkCarriesNoTraffic) {
  Fixture f;
  const common::LinkId link(0);
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  f.state.direction(up).corruption_rate = 1e-2;
  f.topo.set_enabled(link, false);

  ThresholdBackend backend(f.env);
  const common::Rng before = f.rng;
  for (int i = 0; i < 3 * kWindow; ++i) {
    EXPECT_TRUE(f.poll(backend, {link}).empty());
  }
  common::Rng replica = before;
  EXPECT_EQ(f.rng(), replica());

  telemetry::DirectionLoad load;
  load.utilization = 0.9;
  const telemetry::PollSample s = telemetry::sample_direction_keyed(
      f.state, up, 0, common::kPollInterval, load, 2);
  EXPECT_EQ(s.packets, 0u);
  EXPECT_EQ(s.corruption_drops, 0u);
  EXPECT_DOUBLE_EQ(s.utilization, 0.0);
  EXPECT_DOUBLE_EQ(s.rx_power_dbm, -4.0);
}

// A poll cycle visits both directions of every suspect, in order: over
// a clean fabric it counts one poll per direction and draws nothing.
TEST(Monitor, PollAllDirections) {
  Fixture f;
  obs::MetricsRegistry registry;
  obs::Sink sink;
  sink.metrics = &registry;
  ThresholdBackend backend(f.env);
  backend.attach_sink(&sink);
  common::Rng replica = f.rng;
  EXPECT_TRUE(f.poll(backend, f.every_link()).empty());
  EXPECT_EQ(f.rng(), replica());
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_FALSE(snapshot.counters.empty());
  EXPECT_EQ(snapshot.counters[0].name, "telemetry.polls");
  EXPECT_EQ(snapshot.counters[0].value, f.topo.direction_count());
}

}  // namespace
}  // namespace corropt::detect
