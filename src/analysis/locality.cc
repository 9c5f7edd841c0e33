#include "analysis/locality.h"

#include <cassert>

#include "common/lossy.h"

namespace corropt::analysis {

double switch_fraction(const topology::Topology& topo,
                       std::span<const common::LinkId> links) {
  if (topo.switch_count() == 0) return 0.0;
  std::vector<char> touched(topo.switch_count(), 0);
  std::size_t count = 0;
  for (common::LinkId id : links) {
    const topology::Link& link = topo.link_at(id);
    for (common::SwitchId end : {link.lower, link.upper}) {
      if (touched[end.index()] == 0) {
        touched[end.index()] = 1;
        ++count;
      }
    }
  }
  return static_cast<double>(count) /
         static_cast<double>(topo.switch_count());
}

double locality_ratio(const topology::Topology& topo,
                      std::span<const common::LinkId> links,
                      common::Rng& rng) {
  // Random placements averaged into the expected switch fraction.
  constexpr int kTrials = 32;
  if (links.empty()) return 1.0;
  const double observed = switch_fraction(topo, links);

  double expected = 0.0;
  std::vector<common::LinkId> placement(links.size());
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<std::size_t> sampled =
        rng.sample_without_replacement(topo.link_count(), links.size());
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      placement[i] = common::LinkId(
          static_cast<common::LinkId::underlying_type>(sampled[i]));
    }
    expected += switch_fraction(topo, placement);
  }
  expected /= static_cast<double>(kTrials);
  return expected == 0.0 ? 1.0 : observed / expected;
}

AsymmetryStats asymmetry(std::span<const double> up_rates,
                         std::span<const double> down_rates) {
  assert(up_rates.size() == down_rates.size());
  AsymmetryStats stats;
  for (std::size_t i = 0; i < up_rates.size(); ++i) {
    const bool up = up_rates[i] >= common::kLossyThreshold;
    const bool down = down_rates[i] >= common::kLossyThreshold;
    if (!up && !down) continue;
    ++stats.lossy_links;
    if (up && down) {
      ++stats.bidirectional_links;
      stats.bidirectional_rates.emplace_back(up_rates[i], down_rates[i]);
    }
  }
  return stats;
}

}  // namespace corropt::analysis
