#include "telemetry/network_state.h"

#include <cmath>

namespace corropt::telemetry {

NetworkState::NetworkState(const topology::Topology& topo, OpticalTech tech)
    : topo_(&topo), tech_(std::move(tech)) {
  const std::size_t n = topo.direction_count();
  tx_power_dbm_.assign(n, tech_.nominal_tx_dbm);
  extra_attenuation_db_.assign(n, 0.0);
  corruption_rate_.assign(n, 0.0);
}

template <class Self, class Codec>
void NetworkState::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('N', 'E', 'T', 'S'), 2, "network state");
  c.guard(self.tx_power_dbm_.size(), "network state direction count");
  for (auto& v : self.tx_power_dbm_) {
    c.f64(v);
    c.check(std::isfinite(v), "network state Tx power not finite");
  }
  for (auto& v : self.extra_attenuation_db_) {
    c.f64(v);
    c.check(std::isfinite(v), "network state attenuation not finite");
  }
  // A loss probability; a NaN fails both comparisons.
  for (auto& v : self.corruption_rate_) {
    c.f64(v);
    c.check(v >= 0.0 && v <= 1.0,
            "network state corruption rate outside [0, 1]");
  }
}

void NetworkState::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void NetworkState::restore_from(common::snap::Reader& r) { walk(*this, r); }

}  // namespace corropt::telemetry
