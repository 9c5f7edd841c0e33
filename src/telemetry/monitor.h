// SNMP-style polling monitor.
//
// The paper's monitoring system queries each link's packet drop, packet
// error and total packet counts plus optical power levels every 15 minutes
// (Section 2). PollingMonitor advances the counters in NetworkState by one
// epoch of offered load and emits one sample per direction, exactly the
// view the measurement study and CorrOpt's controller consume.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "obs/sink.h"
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
  [[nodiscard]] double total_loss_rate() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(corruption_drops +
                                               congestion_drops) /
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
inline constexpr double kDefaultPacketsPerPoll = 1.25e7;

// Synthesizes one direction's poll sample purely from its inputs: the
// counter deltas are drawn from a CounterRng keyed on (poll_seed,
// direction, epoch_start), so any sample of a study window is computable
// independently, in any order, on any thread, with bit-identical results
// (DESIGN.md §9). Unlike PollingMonitor::poll_direction this does not
// advance the cumulative counters in `state`. Offered packets scale with
// the epoch length (a 1-hour epoch carries 4x the traffic of a 15-minute
// poll); directions with zero corruption and zero congestion skip the
// Poisson machinery entirely.
[[nodiscard]] PollSample sample_direction_keyed(
    const NetworkState& state, DirectionId dir, SimTime epoch_start,
    SimDuration epoch, const DirectionLoad& load, std::uint64_t poll_seed,
    double packets_per_poll_at_line_rate = kDefaultPacketsPerPoll);

class PollingMonitor {
 public:
  // `packets_per_epoch_at_line_rate` converts utilization into a packet
  // count per 15-minute poll interval (see kDefaultPacketsPerPoll).
  PollingMonitor(NetworkState& state, common::Rng& rng,
                 double packets_per_epoch_at_line_rate =
                     kDefaultPacketsPerPoll);

  // Advances one direction by one epoch and returns its sample. Disabled
  // links carry no traffic and report zero counters but their optics are
  // still sampled (lasers stay on). `epoch` scales the offered packet
  // count relative to the 15-minute poll interval.
  PollSample poll_direction(DirectionId dir, SimTime epoch_start,
                            const DirectionLoad& load,
                            SimDuration epoch = common::kPollInterval);

  // Attaches observability: "telemetry.polls" counts direction samples.
  // "telemetry.poll_cycles" is registered but stays 0: nothing polls the
  // whole fabric at once, and the metrics documents keep the key. Pass
  // nullptr to detach.
  void set_sink(obs::Sink* sink);

 private:
  NetworkState* state_;
  common::Rng* rng_;
  double packets_at_line_rate_;
  obs::Counter obs_polls_;
};

}  // namespace corropt::telemetry
