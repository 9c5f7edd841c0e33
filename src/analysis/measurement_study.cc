#include "analysis/measurement_study.h"

#include <algorithm>
#include <span>

namespace corropt::analysis {

MeasurementStudy::MeasurementStudy(const topology::Topology& topo,
                                   StudyConfig config)
    : config_(config),
      rng_(config.seed),
      state_(topo, telemetry::default_tech()),
      injector_(state_),
      congestion_(topo, rng_) {
  // Seed the corruption population. Faults are stable across the window
  // (Section 3: corruption rate is stable over time), so one injection
  // pass at t = 0 suffices.
  faults::FaultFactory factory(topo, config_.mix, rng_);
  const auto target = static_cast<std::size_t>(
      config_.corrupting_link_fraction *
      static_cast<double>(topo.link_count()));
  std::vector<char> seeded(topo.link_count(), 0);
  corrupting_.reserve(target);
  while (corrupting_.size() < target) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng_.uniform_index(topo.link_count())));
    if (seeded[link.index()] != 0) continue;
    const faults::Fault fault = factory.make_random_fault(link, 0);
    const std::vector<common::LinkId> links = fault.links;
    injector_.inject(fault);
    for (common::LinkId affected : links) {
      if (seeded[affected.index()] != 0) continue;
      seeded[affected.index()] = 1;
      corrupting_.emplace_back(affected,
                               state_.link_corruption_rate(affected));
    }
  }

  // Per-sample poll keys live on their own stream: one splitmix64 hop
  // away from the construction seed, so adding or removing construction
  // draws never shifts the telemetry.
  poll_seed_ = common::CounterRng(config_.seed, 0x706f6c6cULL /*"poll"*/,
                                  0)();

  all_dirs_.resize(topo.direction_count());
  // Streams the SoA corruption-rate array directly; the classification
  // pass touches every direction once.
  const std::span<const double> rates = state_.corruption_rates();
  for (std::size_t i = 0; i < topo.direction_count(); ++i) {
    const common::DirectionId dir(
        static_cast<common::DirectionId::underlying_type>(i));
    all_dirs_[i] = dir.value();
    const bool corrupts = rates[i] > 0.0;
    const bool congests = congestion_.can_ever_congest(dir);
    if (corrupts || congests) lossy_dirs_.push_back(dir.value());
  }

  if (config_.sink != nullptr && config_.sink->metrics != nullptr) {
    synth_timer_ = config_.sink->metrics->timer("study.synthesize_s");
    merge_timer_ = config_.sink->metrics->timer("study.merge_s");
  }
}

std::vector<MeasurementStudy::Tile> MeasurementStudy::plan_tiles(
    bool lossy_only) const {
  const std::size_t domain_size = domain(lossy_only).size();
  std::vector<Tile> tiles;
  for (std::size_t d = 0; d < domain_size; d += kDirectionsPerTile) {
    tiles.push_back({d, std::min(domain_size, d + kDirectionsPerTile)});
  }
  return tiles;
}

telemetry::PollSample MeasurementStudy::sample(common::DirectionId dir,
                                               SimTime t) const {
  telemetry::DirectionLoad load;
  load.utilization = congestion_.utilization(dir, t);
  load.congestion_rate = congestion_.loss_rate(dir, load.utilization, t);
  return telemetry::sample_direction_keyed(state_, dir, t, config_.epoch,
                                           load, poll_seed_);
}

}  // namespace corropt::analysis
