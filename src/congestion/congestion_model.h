// Congestion loss model for the measurement-study contrast figures.
//
// The paper contrasts corruption with congestion along five axes
// (Section 3): congestion affects more links at lower loss rates
// (Table 1), varies strongly over time (Figure 2), correlates with
// outgoing utilization (Figure 3), clusters spatially (Figure 4) and is
// usually bidirectional (Figure 5). This module generates per-direction
// utilization and congestion-loss processes with those properties:
// congestion concentrates in "hot pods" (a rack cluster serving a hot
// service), which yields the strong per-switch locality the paper
// measures, and most — but not all — hot links run hot in both
// directions.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "topology/topology.h"

namespace corropt::congestion {

using common::DirectionId;
using common::SimTime;

// The model's utilization, hotspot and loss-curve shape are constants
// of congestion_model.cc.
class CongestionModel {
 public:
  // Utilization at and below which a direction loses nothing to
  // congestion (the knee of the loss curve).
  static constexpr double kKneeUtilization = 0.55;

  CongestionModel(const topology::Topology& topo, common::Rng& rng);

  // Offered utilization for a direction at a moment of simulated time.
  // Deterministic in (direction, time) given the construction seed, so a
  // week of polls for one link forms a coherent diurnal series.
  [[nodiscard]] double utilization(DirectionId dir, SimTime t) const;

  // Congestion loss probability implied by a utilization sample.
  [[nodiscard]] double loss_rate(DirectionId dir, double utilization,
                                 SimTime t) const;

  [[nodiscard]] bool is_hot_pod(int pod) const {
    return pod >= 0 && static_cast<std::size_t>(pod) < hot_pod_.size() &&
           hot_pod_[static_cast<std::size_t>(pod)];
  }
  // True when this direction runs hot (hot-pod intra-pod link, or a link
  // incident to a hotspot switch), accounting for the unidirectional
  // minority.
  [[nodiscard]] bool is_hot(DirectionId dir) const {
    return hot_direction_[dir.index()];
  }

  // Closed-form upper bound on utilization(dir, t) over all t: base +
  // full diurnal swing + full noise swing (+ hotspot boost), clamped the
  // same way utilization() clamps. Exact because sin and the stable
  // noise are both bounded by 1 in magnitude.
  [[nodiscard]] double utilization_upper_bound(DirectionId dir) const;

  // True when the direction can ever cross the loss knee. loss_rate()
  // returns 0 whenever utilization <= knee, so a direction whose bound
  // stays at or below the knee provably never loses a packet to
  // congestion — the measurement study skips its draws entirely.
  [[nodiscard]] bool can_ever_congest(DirectionId dir) const {
    return utilization_upper_bound(dir) > kKneeUtilization;
  }

 private:
  // Hash-derived stable per-(direction, epoch) uniform in [0, 1).
  [[nodiscard]] double stable_noise(DirectionId dir, SimTime t,
                                    unsigned salt) const;

  std::uint64_t seed_;
  std::vector<bool> hot_pod_;
  std::vector<bool> hot_direction_;
  // Per-direction random phase for the diurnal cycle.
  std::vector<double> phase_;
  // Per-direction persistent loss severity multiplier.
  std::vector<double> severity_;
};

}  // namespace corropt::congestion
