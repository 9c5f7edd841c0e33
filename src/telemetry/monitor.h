// SNMP-style poll samples for the measurement study.
//
// The paper's monitoring system queries each link's packet drop, packet
// error and total packet counts plus optical power levels every 15 minutes
// (Section 2). sample_direction_keyed synthesizes one direction's sample
// of an epoch, the view the measurement study consumes. The closed loop's
// polls live in detect::ThresholdBackend.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "common/time.h"
#include "telemetry/network_state.h"

namespace corropt::telemetry {

using common::SimDuration;
using common::SimTime;

struct PollSample {
  SimTime time = 0;
  DirectionId direction;
  // Counter deltas over the polling interval.
  std::uint64_t packets = 0;
  std::uint64_t corruption_drops = 0;
  std::uint64_t congestion_drops = 0;
  // Optical power snapshot: Tx at the transmitting end, Rx at the
  // receiving end of this direction.
  double tx_power_dbm = 0.0;
  double rx_power_dbm = 0.0;
  // Offered utilization in [0, 1] during the interval.
  double utilization = 0.0;

  [[nodiscard]] double corruption_loss_rate() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(corruption_drops) /
                              static_cast<double>(packets);
  }
  [[nodiscard]] double congestion_loss_rate() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(congestion_drops) /
                              static_cast<double>(packets);
  }
};

// Supplies per-direction offered load for an epoch.
struct DirectionLoad {
  // Fraction of line rate in [0, 1].
  double utilization = 0.0;
  // Probability a packet is dropped to congestion this epoch.
  double congestion_rate = 0.0;
};

// Packet budget of one 15-minute poll interval at line rate: ~1.4 Mpps
// scaled down 100x to keep counter arithmetic cheap while preserving
// loss-rate resolution down to 1e-9.
inline constexpr double kPacketsPerPoll = 1.25e7;

// Synthesizes one direction's poll sample purely from its inputs: the
// counter deltas are drawn from a CounterRng keyed on (poll_seed,
// direction, epoch_start), so any sample of a study window is computable
// independently, in any order, on any thread, with bit-identical results
// (DESIGN.md §9). Offered packets scale with the epoch length (a 1-hour
// epoch carries 4x the traffic of a 15-minute poll); directions with
// zero corruption and zero congestion skip the Poisson machinery
// entirely.
[[nodiscard]] PollSample sample_direction_keyed(
    const NetworkState& state, DirectionId dir, SimTime epoch_start,
    SimDuration epoch, const DirectionLoad& load, std::uint64_t poll_seed);

}  // namespace corropt::telemetry
