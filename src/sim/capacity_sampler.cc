#include "sim/capacity_sampler.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace corropt::sim {

CapacitySampler::CapacitySampler(SimContext& ctx) : ctx_(ctx) {
  ctx_.queue.set_handler(
      EventType::kCapacitySample,
      [this](const Event& event) { handle_sample(event); });
}

void CapacitySampler::start() {
  samples_ = 0;
  cached_ = false;
  Event sample;
  sample.due = 0;
  sample.type = EventType::kCapacitySample;
  ctx_.queue.schedule(sample);
}

void CapacitySampler::handle_sample(const Event& event) {
  SimulationMetrics& metrics = *ctx_.metrics;
  const SimTime t = event.due;
  const auto& tors = ctx_.topo.tors();
  const std::uint64_t version = ctx_.topo.state_version();
  if (!cached_ || cached_version_ != version) {
    const std::vector<std::uint64_t>& counts = ctx_.paths.live_counts();
    worst_ = 1.0;
    sum_ = 0.0;
    for (common::SwitchId tor : tors) {
      const double design =
          static_cast<double>(ctx_.paths.design_paths()[tor.index()]);
      const double fraction =
          design == 0.0 ? 1.0
                        : static_cast<double>(counts[tor.index()]) / design;
      worst_ = std::min(worst_, fraction);
      sum_ += fraction;
    }
    cached_ = true;
    cached_version_ = version;
  }
  metrics.worst_tor_fraction.push_back({t, worst_});
  metrics.disabled_links.push_back(
      {t, static_cast<double>(ctx_.topo.link_count() -
                              ctx_.topo.enabled_link_count())});
  if (!tors.empty()) {
    // Accumulate for the time-averaged mean; finalized at end of run.
    metrics.mean_tor_fraction += sum_ / static_cast<double>(tors.size());
  }
  ++samples_;

  Event next = event;
  next.due = t + ctx_.config.capacity_sample_interval;
  ctx_.queue.schedule(next);
}

void CapacitySampler::finalize(SimulationMetrics& metrics) const {
  if (samples_ > 0) {
    metrics.mean_tor_fraction /= static_cast<double>(samples_);
  } else {
    metrics.mean_tor_fraction = 1.0;
  }
}

template <class Self, class Codec>
void CapacitySampler::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('C', 'S', 'M', 'P'), 1, "capacity sampler");
  c.u64(self.samples_);
}

void CapacitySampler::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void CapacitySampler::restore_from(common::snap::Reader& r) { walk(*this, r); }

}  // namespace corropt::sim
