#include "telemetry/monitor.h"

#include <cmath>

#include "common/rng.h"
#include "telemetry/optical.h"

namespace corropt::telemetry {

PollSample sample_direction_keyed(const NetworkState& state, DirectionId dir,
                                  SimTime epoch_start, SimDuration epoch,
                                  const DirectionLoad& load,
                                  std::uint64_t poll_seed) {
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
    // Offered packets scale from the 15-minute poll budget.
    const double scale = static_cast<double>(epoch) /
                         static_cast<double>(common::kPollInterval);
    const double offered = kPacketsPerPoll * load.utilization * scale;
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

}  // namespace corropt::telemetry
