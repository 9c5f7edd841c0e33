// Spatial-locality and asymmetry analyses (Figures 4 and 5).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "topology/topology.h"

namespace corropt::analysis {

// Figure 4's locality metric: the fraction of switches incident to the
// given links, divided by the expected fraction if the same number of
// links were placed uniformly at random (estimated over 32 random
// placements). 1 means no locality; lower means co-location.
[[nodiscard]] double locality_ratio(const topology::Topology& topo,
                                    std::span<const common::LinkId> links,
                                    common::Rng& rng);

// Fraction of switches incident to at least one of `links`.
[[nodiscard]] double switch_fraction(const topology::Topology& topo,
                                     std::span<const common::LinkId> links);

struct AsymmetryStats {
  // Links lossy in at least one direction.
  std::size_t lossy_links = 0;
  // Links lossy in both directions.
  std::size_t bidirectional_links = 0;
  // (up rate, down rate) for the bidirectional links: Figure 5's scatter.
  std::vector<std::pair<double, double>> bidirectional_rates;

  [[nodiscard]] double bidirectional_fraction() const {
    return lossy_links == 0 ? 0.0
                            : static_cast<double>(bidirectional_links) /
                                  static_cast<double>(lossy_links);
  }
};

// Classifies per-link directional loss rates. `up_rates`/`down_rates`
// are indexed by link id; a direction is lossy when its rate reaches
// common::kLossyThreshold.
[[nodiscard]] AsymmetryStats asymmetry(std::span<const double> up_rates,
                                       std::span<const double> down_rates);

}  // namespace corropt::analysis
