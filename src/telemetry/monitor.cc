#include "telemetry/monitor.h"

#include <cassert>
#include <cmath>

#include "telemetry/optical.h"

namespace corropt::telemetry {

PollingMonitor::PollingMonitor(NetworkState& state, common::Rng& rng,
                               double packets_per_epoch_at_line_rate)
    : state_(&state),
      rng_(&rng),
      packets_at_line_rate_(packets_per_epoch_at_line_rate) {
  assert(packets_per_epoch_at_line_rate > 0.0);
}

void PollingMonitor::set_sink(obs::Sink* sink) {
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_polls_ = obs::Counter();
    return;
  }
  obs_polls_ = sink->metrics->counter("telemetry.polls");
  static_cast<void>(sink->metrics->counter("telemetry.poll_cycles"));
}

namespace {

// Offered packets for one epoch, scaled from the 15-minute poll budget.
double offered_packets(double packets_per_poll, double utilization,
                       SimDuration epoch) {
  const double scale = static_cast<double>(epoch) /
                       static_cast<double>(common::kPollInterval);
  return packets_per_poll * utilization * scale;
}

}  // namespace

PollSample sample_direction_keyed(const NetworkState& state, DirectionId dir,
                                  SimTime epoch_start, SimDuration epoch,
                                  const DirectionLoad& load,
                                  std::uint64_t poll_seed,
                                  double packets_per_poll_at_line_rate) {
  const auto d = state.direction(dir);
  const topology::Topology& topo = state.topo();
  const bool enabled = topo.is_enabled(topology::link_of(dir));

  PollSample sample;
  sample.time = epoch_start;
  sample.direction = dir;
  sample.tx_power_dbm = d.tx_power_dbm;
  sample.rx_power_dbm = state.rx_power_dbm(dir);
  sample.utilization = enabled ? load.utilization : 0.0;

  if (enabled && load.utilization > 0.0) {
    const double offered = offered_packets(packets_per_poll_at_line_rate,
                                           load.utilization, epoch);
    sample.packets = static_cast<std::uint64_t>(offered);
    const double corruption_mean = offered * d.corruption_rate;
    const double congestion_mean = offered * load.congestion_rate;
    // Healthy idle fast path: with both drop means at zero there is
    // nothing to draw, so the generator is never even keyed. Under
    // sequential RNG skipping draws would shift every later sample;
    // under the per-sample key it is exactly identical.
    if (corruption_mean > 0.0 || congestion_mean > 0.0) {
      common::CounterRng rng(poll_seed, dir.value(),
                             static_cast<std::uint64_t>(epoch_start));
      // Expected drops with Poisson dispersion: for the small per-packet
      // probabilities involved, Binomial(n, p) ~ Poisson(n * p).
      sample.corruption_drops = rng.poisson(corruption_mean);
      sample.congestion_drops = rng.poisson(congestion_mean);
    }
  }
  return sample;
}

PollSample PollingMonitor::poll_direction(DirectionId dir,
                                          SimTime epoch_start,
                                          const DirectionLoad& load,
                                          SimDuration epoch) {
  auto d = state_->direction(dir);
  const topology::Topology& topo = state_->topo();
  const bool enabled = topo.is_enabled(topology::link_of(dir));

  PollSample sample;
  sample.time = epoch_start;
  sample.direction = dir;
  sample.tx_power_dbm = d.tx_power_dbm;
  sample.rx_power_dbm = state_->rx_power_dbm(dir);
  sample.utilization = enabled ? load.utilization : 0.0;

  if (enabled && load.utilization > 0.0) {
    const double offered =
        offered_packets(packets_at_line_rate_, load.utilization, epoch);
    sample.packets = static_cast<std::uint64_t>(offered);
    // Expected drops with Poisson dispersion: for the small per-packet
    // probabilities involved, Binomial(n, p) ~ Poisson(n * p).
    sample.corruption_drops = rng_->poisson(offered * d.corruption_rate);
    sample.congestion_drops = rng_->poisson(offered * load.congestion_rate);
    d.packets += sample.packets;
    d.corruption_drops += sample.corruption_drops;
    d.congestion_drops += sample.congestion_drops;
  }
  obs_polls_.add();
  return sample;
}

}  // namespace corropt::telemetry
