// Mutable per-direction physical state of the network.
//
// Fault models (src/faults) perturb this state; the detection backends and
// the measurement study read it to produce SNMP-like samples; the
// recommendation engine queries it to classify power symptoms. State is
// stored per *direction* because both optics and corruption are
// directional (Section 3: only 8.2% of corrupting links corrupt in both
// directions).
//
// Layout is Struct-of-Arrays: each field lives in its own flat vector
// indexed by direction id (up = 2*link, down = 2*link+1), so hot sweeps —
// the penalty accountant's corruption scan, the threshold backend's poll
// loop, the fleet campaign's per-DC simulations — stream over dense
// arrays instead of striding through an array of structs. `direction()`
// returns a lightweight view whose members are references into the
// arrays, so `state.direction(id).field` reads and writes one direction's
// state.
//
// The state is never checkpointed: in a simulation faults::FaultInjector
// is its only writer, and a restored injector rebuilds every direction from its
// active faults and decay clock (DESIGN.md §14).
#pragma once

#include <span>
#include <vector>

#include "common/ids.h"
#include "common/lossy.h"
#include "telemetry/optical.h"
#include "topology/topology.h"

namespace corropt::telemetry {

using common::DirectionId;
using common::LinkId;

// Mutable view over one direction's slice of the flat arrays. Cheap to
// copy (a bundle of references); writing through its members writes the
// arrays. Keep it by value: `auto d = state.direction(id);`.
struct DirectionView {
  // Transmitter output power; faults (decaying lasers) lower it.
  double& tx_power_dbm;
  // Fault-induced path loss beyond the healthy budget (contamination,
  // bends) in dB.
  double& extra_attenuation_db;
  // Probability that a packet on this direction is corrupted and dropped.
  double& corruption_rate;
};

// Read-only counterpart of DirectionView.
struct ConstDirectionView {
  const double& tx_power_dbm;
  const double& extra_attenuation_db;
  const double& corruption_rate;
};

class NetworkState {
 public:
  NetworkState(const topology::Topology& topo, OpticalTech tech);

  [[nodiscard]] const topology::Topology& topo() const { return *topo_; }
  [[nodiscard]] const OpticalTech& tech() const { return tech_; }

  [[nodiscard]] DirectionView direction(DirectionId id) {
    const std::size_t i = id.index();
    return {tx_power_dbm_[i], extra_attenuation_db_[i], corruption_rate_[i]};
  }
  [[nodiscard]] ConstDirectionView direction(DirectionId id) const {
    const std::size_t i = id.index();
    return {tx_power_dbm_[i], extra_attenuation_db_[i], corruption_rate_[i]};
  }

  // The flat per-direction corruption rates, indexed by DirectionId. Hot
  // loops stream them directly instead of going through direction().
  [[nodiscard]] std::span<const double> corruption_rates() const {
    return corruption_rate_;
  }

  [[nodiscard]] double tx_power_dbm(DirectionId id) const {
    return tx_power_dbm_[id.index()];
  }
  [[nodiscard]] double rx_power_dbm(DirectionId id) const {
    const std::size_t i = id.index();
    return tech_.rx_power_dbm(tx_power_dbm_[i], extra_attenuation_db_[i]);
  }
  [[nodiscard]] bool rx_is_low(DirectionId id) const {
    return tech_.rx_is_low(rx_power_dbm(id));
  }
  [[nodiscard]] bool tx_is_low(DirectionId id) const {
    return tech_.tx_is_low(tx_power_dbm(id));
  }

  [[nodiscard]] double corruption_rate(DirectionId id) const {
    return corruption_rate_[id.index()];
  }
  // The link-level corruption rate: the worse of the two directions,
  // which is what drives the decision to disable the whole link. With the
  // SoA layout the two directions are adjacent doubles (2*link, 2*link+1).
  [[nodiscard]] double link_corruption_rate(LinkId id) const {
    const std::size_t up = 2 * id.index();
    return corruption_rate_[up] > corruption_rate_[up + 1]
               ? corruption_rate_[up]
               : corruption_rate_[up + 1];
  }
  [[nodiscard]] bool link_is_corrupting(LinkId id) const {
    return link_corruption_rate(id) >= common::kLossyThreshold;
  }

 private:
  const topology::Topology* topo_;
  OpticalTech tech_;
  // One entry per direction, all sized to topo().direction_count().
  std::vector<double> tx_power_dbm_;
  std::vector<double> extra_attenuation_db_;
  std::vector<double> corruption_rate_;
};

}  // namespace corropt::telemetry
