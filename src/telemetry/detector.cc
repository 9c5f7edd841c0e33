#include "telemetry/detector.h"

#include <algorithm>

namespace corropt::telemetry {

CorruptionDetector::CorruptionDetector(const topology::Topology& topo) {
  windows_.resize(topo.direction_count());
  estimates_.assign(topo.direction_count(), 0.0);
  corrupting_.assign(topo.link_count(), 0);
}

void CorruptionDetector::set_sink(obs::Sink* sink) {
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_detections_ = obs::Counter();
    obs_clears_ = obs::Counter();
    return;
  }
  obs_detections_ = sink->metrics->counter("telemetry.detections");
  obs_clears_ = sink->metrics->counter("telemetry.clears");
}

void CorruptionDetector::reset(common::LinkId link) {
  for (const topology::LinkDirection dir :
       {topology::LinkDirection::kUp, topology::LinkDirection::kDown}) {
    const auto direction = topology::direction_id(link, dir);
    windows_[direction.index()] = Window{};
    estimates_[direction.index()] = 0.0;
  }
  corrupting_[link.index()] = 0;
}

std::optional<DetectionEvent> CorruptionDetector::observe(
    const PollSample& sample) {
  Window& window = windows_[sample.direction.index()];
  window.packets += sample.packets;
  window.drops += sample.corruption_drops;
  ++window.polls;
  if (window.polls < kWindowPolls) return std::nullopt;

  // Window complete: update the direction's estimate if it carried
  // enough traffic for the rate to be meaningful.
  const bool valid = window.packets >= kMinWindowPackets;
  if (valid) {
    estimates_[sample.direction.index()] =
        static_cast<double>(window.drops) /
        static_cast<double>(window.packets);
  }
  window = Window{};
  if (!valid) return std::nullopt;

  const common::LinkId link = topology::link_of(sample.direction);
  const double up = estimates_[topology::direction_id(
                                   link, topology::LinkDirection::kUp)
                                   .index()];
  const double down = estimates_[topology::direction_id(
                                     link, topology::LinkDirection::kDown)
                                     .index()];
  const double rate = std::max(up, down);

  const bool was_corrupting = corrupting_[link.index()] != 0;
  if (!was_corrupting && rate >= common::kLossyThreshold) {
    corrupting_[link.index()] = 1;
    obs_detections_.add();
    return DetectionEvent{DetectionEvent::Kind::kCorrupting, link, rate,
                          sample.time};
  }
  if (was_corrupting && rate < common::kClearThreshold) {
    corrupting_[link.index()] = 0;
    obs_clears_.add();
    return DetectionEvent{DetectionEvent::Kind::kCleared, link, rate,
                          sample.time};
  }
  return std::nullopt;
}

template <class Self, class Codec>
void CorruptionDetector::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('D', 'T', 'C', 'T'), 1, "detector");
  c.guard(self.windows_.size(), "detector direction count");
  for (auto& window : self.windows_) {
    c.u64(window.packets);
    c.u64(window.drops);
    c.i64(window.polls);
  }
  for (auto& estimate : self.estimates_) c.f64(estimate);
  c.guard(self.corrupting_.size(), "detector link count");
  for (auto& flag : self.corrupting_) c.u8(flag);
}

void CorruptionDetector::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void CorruptionDetector::restore_from(common::snap::Reader& r) {
  walk(*this, r);
}

}  // namespace corropt::telemetry
