#include <gtest/gtest.h>

#include "common/lossy.h"
#include "telemetry/monitor.h"
#include "telemetry/network_state.h"
#include "telemetry/optical.h"
#include "topology/topology.h"

namespace corropt::telemetry {
namespace {

using topology::LinkDirection;
using topology::Topology;

Topology single_link_topo() {
  Topology topo;
  const auto tor = topo.add_switch(0, "tor");
  const auto spine = topo.add_switch(1, "spine");
  topo.add_link(tor, spine);
  return topo;
}

TEST(Optical, HealthyPowersClassifyHigh) {
  const OpticalTech tech = default_tech();
  const double rx = tech.rx_power_dbm(tech.nominal_tx_dbm, 0.0);
  EXPECT_DOUBLE_EQ(rx, -4.0);
  EXPECT_FALSE(tech.rx_is_low(rx));
  EXPECT_FALSE(tech.tx_is_low(tech.nominal_tx_dbm));
}

TEST(Optical, AttenuationDropsRxBelowThreshold) {
  const OpticalTech tech = default_tech();
  const double rx = tech.rx_power_dbm(tech.nominal_tx_dbm, 10.0);
  EXPECT_DOUBLE_EQ(rx, -14.0);
  EXPECT_TRUE(tech.rx_is_low(rx));
}

TEST(NetworkState, InitializesNominalPowers) {
  const Topology topo = single_link_topo();
  NetworkState state(topo, default_tech());
  const auto up = topology::direction_id(common::LinkId(0),
                                         LinkDirection::kUp);
  EXPECT_DOUBLE_EQ(state.tx_power_dbm(up), 0.0);
  EXPECT_DOUBLE_EQ(state.rx_power_dbm(up), -4.0);
  EXPECT_FALSE(state.rx_is_low(up));
  EXPECT_FALSE(state.tx_is_low(up));
}

TEST(NetworkState, LinkCorruptionRateIsWorseDirection) {
  const Topology topo = single_link_topo();
  NetworkState state(topo, default_tech());
  const common::LinkId link(0);
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  state.direction(up).corruption_rate = 1e-5;
  state.direction(down).corruption_rate = 3e-4;
  EXPECT_DOUBLE_EQ(state.link_corruption_rate(link), 3e-4);
  EXPECT_TRUE(state.link_is_corrupting(link));
  // Both directions under the 802.3 threshold: the link is not lossy.
  state.direction(up).corruption_rate = 0.5 * common::kLossyThreshold;
  state.direction(down).corruption_rate = 0.9 * common::kLossyThreshold;
  EXPECT_FALSE(state.link_is_corrupting(link));
}

// The SoA view contract: direction() hands out a bundle of references
// into the flat per-direction arrays, and writes go straight to storage.
TEST(NetworkState, DirectionViewWritesThroughToFlatArrays) {
  const Topology topo = single_link_topo();
  NetworkState state(topo, default_tech());
  const auto up = topology::direction_id(common::LinkId(0),
                                         LinkDirection::kUp);
  const auto down = topology::direction_id(common::LinkId(0),
                                           LinkDirection::kDown);

  auto view = state.direction(up);
  view.corruption_rate = 2.5e-4;
  view.extra_attenuation_db = 9.0;

  // Reads through the flat span and through fresh views see the writes
  // (up = 2*link, down = 2*link + 1).
  EXPECT_DOUBLE_EQ(state.corruption_rates()[0], 2.5e-4);
  EXPECT_DOUBLE_EQ(state.corruption_rates()[1], 0.0);
  EXPECT_DOUBLE_EQ(state.direction(up).extra_attenuation_db, 9.0);
  EXPECT_DOUBLE_EQ(state.direction(down).extra_attenuation_db, 0.0);
  EXPECT_DOUBLE_EQ(state.corruption_rate(up), 2.5e-4);
  EXPECT_DOUBLE_EQ(state.corruption_rate(down), 0.0);

  // A copy of a view holds the same references: it writes the storage.
  auto copy = view;
  copy.corruption_rate = 7e-3;
  EXPECT_DOUBLE_EQ(state.corruption_rate(up), 7e-3);
}

TEST(NetworkState, ConstViewReadsFlatArrays) {
  const Topology topo = single_link_topo();
  NetworkState state(topo, default_tech());
  state.direction(topology::direction_id(common::LinkId(0),
                                         LinkDirection::kDown))
      .corruption_rate = 4e-5;
  const NetworkState& const_state = state;
  const auto view = const_state.direction(topology::direction_id(
      common::LinkId(0), LinkDirection::kDown));
  EXPECT_DOUBLE_EQ(view.corruption_rate, 4e-5);
  EXPECT_DOUBLE_EQ(view.tx_power_dbm, default_tech().nominal_tx_dbm);
  EXPECT_EQ(const_state.corruption_rates().size(),
            topo.direction_count());
}

TEST(Monitor, SampleLossRates) {
  PollSample s;
  s.packets = 1000;
  s.corruption_drops = 10;
  s.congestion_drops = 30;
  EXPECT_DOUBLE_EQ(s.corruption_loss_rate(), 0.01);
  EXPECT_DOUBLE_EQ(s.congestion_loss_rate(), 0.03);
  PollSample empty;
  EXPECT_DOUBLE_EQ(empty.corruption_loss_rate(), 0.0);
}

TEST(Monitor, OfferedPacketsScaleWithEpoch) {
  // Regression: an hourly study epoch once counted only 15 minutes'
  // worth of packets.
  const Topology topo = single_link_topo();
  NetworkState state(topo, default_tech());
  const auto up = topology::direction_id(common::LinkId(0),
                                         LinkDirection::kUp);
  DirectionLoad load;
  load.utilization = 0.5;
  const PollSample base = sample_direction_keyed(
      state, up, 0, common::kPollInterval, load, /*poll_seed=*/5);
  const PollSample hourly =
      sample_direction_keyed(state, up, 0, common::kHour, load, 5);
  EXPECT_EQ(base.packets, static_cast<std::uint64_t>(kPacketsPerPoll / 2));
  EXPECT_EQ(hourly.packets,
            base.packets * (common::kHour / common::kPollInterval));
}

TEST(Monitor, KeyedSampleIsPureInItsKey) {
  const Topology topo = single_link_topo();
  NetworkState state(topo, default_tech());
  const auto up = topology::direction_id(common::LinkId(0),
                                         LinkDirection::kUp);
  state.direction(up).corruption_rate = 1e-3;
  DirectionLoad load;
  load.utilization = 0.5;
  load.congestion_rate = 2e-3;

  // Same (seed, direction, epoch_start) key: identical sample, no
  // matter how many draws happened in between.
  const PollSample a = sample_direction_keyed(state, up, 900, common::kHour,
                                              load, /*poll_seed=*/77);
  for (int i = 0; i < 5; ++i) {
    (void)sample_direction_keyed(state, up, 1800 + 900 * i, common::kHour,
                                 load, 77);
  }
  const PollSample b = sample_direction_keyed(state, up, 900, common::kHour,
                                              load, 77);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.corruption_drops, b.corruption_drops);
  EXPECT_EQ(a.congestion_drops, b.congestion_drops);

  // Different epoch or seed: a different stream (drop counts are random,
  // so check the aggregate differs over several epochs).
  bool any_differs = false;
  for (int i = 0; i < 8; ++i) {
    const PollSample x = sample_direction_keyed(state, up, 900 * i,
                                                common::kHour, load, 77);
    const PollSample y = sample_direction_keyed(state, up, 900 * i,
                                                common::kHour, load, 78);
    any_differs = any_differs || x.corruption_drops != y.corruption_drops ||
                  x.congestion_drops != y.congestion_drops;
  }
  EXPECT_TRUE(any_differs);
}

}  // namespace
}  // namespace corropt::telemetry
