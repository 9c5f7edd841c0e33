// Mutable per-direction physical state of the network.
//
// Fault models (src/faults) perturb this state; the polling monitor reads
// it to produce SNMP-like samples; the recommendation engine queries it to
// classify power symptoms. State is stored per *direction* because both
// optics and corruption are directional (Section 3: only 8.2% of
// corrupting links corrupt in both directions).
//
// Layout is Struct-of-Arrays: each field lives in its own flat vector
// indexed by direction id (up = 2*link, down = 2*link+1), so hot sweeps —
// the penalty accountant's corruption scan, the monitor's poll loop, the
// fleet campaign's per-DC simulations — stream over dense arrays instead
// of striding through an array of structs. `DirectionState` survives as
// the value/snapshot type; `direction()` returns a lightweight view whose
// members are references into the arrays, so `state.direction(id).field`
// reads and writes exactly as it did when the struct was stored inline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/snapshot.h"
#include "telemetry/optical.h"
#include "topology/topology.h"

namespace corropt::telemetry {

using common::DirectionId;
using common::LinkId;

// Value snapshot of one direction's state. Not the storage layout — see
// the SoA note above. Assignable from a view via the conversion operator.
struct DirectionState {
  // Transmitter output power; faults (decaying lasers) lower it.
  double tx_power_dbm = 0.0;
  // Fault-induced path loss beyond the healthy budget (contamination,
  // bends) in dB.
  double extra_attenuation_db = 0.0;
  // Probability that a packet on this direction is corrupted and dropped.
  double corruption_rate = 0.0;
  // Cumulative counters, as a switch would expose over SNMP.
  std::uint64_t packets = 0;
  std::uint64_t corruption_drops = 0;
  std::uint64_t congestion_drops = 0;
};

// Mutable view over one direction's slice of the flat arrays. Cheap to
// copy (a bundle of references); writing through its members writes the
// arrays. Keep it by value: `auto d = state.direction(id);`.
struct DirectionView {
  double& tx_power_dbm;
  double& extra_attenuation_db;
  double& corruption_rate;
  std::uint64_t& packets;
  std::uint64_t& corruption_drops;
  std::uint64_t& congestion_drops;

  // Materializes a value snapshot (also enables
  // `DirectionState s = state.direction(id);`).
  [[nodiscard]] operator DirectionState() const {  // NOLINT(google-explicit-constructor)
    return {tx_power_dbm, extra_attenuation_db, corruption_rate,
            packets,      corruption_drops,     congestion_drops};
  }
  DirectionView& operator=(const DirectionState& s) {
    tx_power_dbm = s.tx_power_dbm;
    extra_attenuation_db = s.extra_attenuation_db;
    corruption_rate = s.corruption_rate;
    packets = s.packets;
    corruption_drops = s.corruption_drops;
    congestion_drops = s.congestion_drops;
    return *this;
  }
};

// Read-only counterpart of DirectionView.
struct ConstDirectionView {
  const double& tx_power_dbm;
  const double& extra_attenuation_db;
  const double& corruption_rate;
  const std::uint64_t& packets;
  const std::uint64_t& corruption_drops;
  const std::uint64_t& congestion_drops;

  [[nodiscard]] operator DirectionState() const {  // NOLINT(google-explicit-constructor)
    return {tx_power_dbm, extra_attenuation_db, corruption_rate,
            packets,      corruption_drops,     congestion_drops};
  }
};

class NetworkState {
 public:
  NetworkState(const topology::Topology& topo, OpticalTech tech);

  [[nodiscard]] const topology::Topology& topo() const { return *topo_; }
  [[nodiscard]] const OpticalTech& tech() const { return tech_; }

  [[nodiscard]] DirectionView direction(DirectionId id) {
    const std::size_t i = id.index();
    return {tx_power_dbm_[i], extra_attenuation_db_[i], corruption_rate_[i],
            packets_[i],      corruption_drops_[i],     congestion_drops_[i]};
  }
  [[nodiscard]] ConstDirectionView direction(DirectionId id) const {
    const std::size_t i = id.index();
    return {tx_power_dbm_[i], extra_attenuation_db_[i], corruption_rate_[i],
            packets_[i],      corruption_drops_[i],     congestion_drops_[i]};
  }

  // Flat per-direction arrays, indexed by DirectionId. Hot loops stream
  // these directly instead of going through direction().
  [[nodiscard]] std::span<const double> extra_attenuations_db() const {
    return extra_attenuation_db_;
  }
  [[nodiscard]] std::span<const double> corruption_rates() const {
    return corruption_rate_;
  }
  [[nodiscard]] std::span<const std::uint64_t> packet_counters() const {
    return packets_;
  }
  [[nodiscard]] std::span<const std::uint64_t> corruption_drop_counters()
      const {
    return corruption_drops_;
  }
  [[nodiscard]] std::span<const std::uint64_t> congestion_drop_counters()
      const {
    return congestion_drops_;
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
  [[nodiscard]] bool link_is_corrupting(LinkId id,
                                        double threshold = 1e-8) const {
    return link_corruption_rate(id) >= threshold;
  }

  // Checkpointing (DESIGN.md §14): the six flat per-direction arrays,
  // bit-exact. The direction count is a guard against restoring into a
  // state built from a different topology.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  const topology::Topology* topo_;
  OpticalTech tech_;
  // One entry per direction, all sized to topo().direction_count().
  std::vector<double> tx_power_dbm_;
  std::vector<double> extra_attenuation_db_;
  std::vector<double> corruption_rate_;
  std::vector<std::uint64_t> packets_;
  std::vector<std::uint64_t> corruption_drops_;
  std::vector<std::uint64_t> congestion_drops_;
};

}  // namespace corropt::telemetry
