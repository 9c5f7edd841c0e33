#include "telemetry/network_state.h"

#include <utility>

namespace corropt::telemetry {

NetworkState::NetworkState(const topology::Topology& topo, OpticalTech tech)
    : topo_(&topo), tech_(std::move(tech)) {
  const std::size_t n = topo.direction_count();
  tx_power_dbm_.assign(n, tech_.nominal_tx_dbm);
  extra_attenuation_db_.assign(n, 0.0);
  corruption_rate_.assign(n, 0.0);
}

}  // namespace corropt::telemetry
