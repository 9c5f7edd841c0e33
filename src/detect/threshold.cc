#include "detect/threshold.h"

#include <algorithm>

#include "telemetry/monitor.h"

namespace corropt::detect {

ThresholdBackend::ThresholdBackend(const BackendEnv& env)
    : topo_(env.topo), state_(env.state), rng_(env.rng) {
  windows_.resize(topo_->direction_count());
  estimates_.assign(topo_->direction_count(), 0.0);
  corrupting_.assign(topo_->link_count(), 0);
}

void ThresholdBackend::poll(common::SimTime /*now*/,
                            std::span<const common::LinkId> suspects,
                            const VerdictCallback& cb) {
  const double offered = telemetry::kPacketsPerPoll * kPollUtilization;
  for (common::LinkId link : suspects) {
    for (const topology::LinkDirection dir :
         {topology::LinkDirection::kUp, topology::LinkDirection::kDown}) {
      const auto direction = topology::direction_id(link, dir);
      // Checked per direction: a verdict on the up direction may have
      // disabled the link.
      std::uint64_t packets = 0;
      std::uint64_t drops = 0;
      if (topo_->is_enabled(link)) {
        packets = static_cast<std::uint64_t>(offered);
        // Expected drops with Poisson dispersion: for the small per-packet
        // probabilities involved, Binomial(n, p) ~ Poisson(n * p).
        drops = rng_->poisson(offered * state_->corruption_rate(direction));
      }
      obs_polls_.add();
      const auto verdict = observe(direction, packets, drops);
      if (verdict.has_value()) cb(*verdict);
    }
  }
}

std::optional<Verdict> ThresholdBackend::observe(common::DirectionId direction,
                                                 std::uint64_t packets,
                                                 std::uint64_t drops) {
  Window& window = windows_[direction.index()];
  window.packets += packets;
  window.drops += drops;
  ++window.polls;
  if (window.polls < kWindowPolls) return std::nullopt;

  // Window complete: update the direction's estimate if it carried
  // enough traffic for the rate to be meaningful.
  const bool valid = window.packets >= kMinWindowPackets;
  if (valid) {
    estimates_[direction.index()] = static_cast<double>(window.drops) /
                                    static_cast<double>(window.packets);
  }
  window = Window{};
  if (!valid) return std::nullopt;

  const common::LinkId link = topology::link_of(direction);
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
    return Verdict{Verdict::Kind::kCorrupting, link, rate};
  }
  if (was_corrupting && rate < common::kClearThreshold) {
    corrupting_[link.index()] = 0;
    obs_clears_.add();
    return Verdict{Verdict::Kind::kCleared, link, rate};
  }
  return std::nullopt;
}

void ThresholdBackend::reset(common::LinkId link) {
  for (const topology::LinkDirection dir :
       {topology::LinkDirection::kUp, topology::LinkDirection::kDown}) {
    const auto direction = topology::direction_id(link, dir);
    windows_[direction.index()] = Window{};
    estimates_[direction.index()] = 0.0;
  }
  corrupting_[link.index()] = 0;
}

void ThresholdBackend::attach_sink(obs::Sink* sink) {
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_polls_ = obs::Counter();
    obs_detections_ = obs::Counter();
    obs_clears_ = obs::Counter();
    return;
  }
  obs_polls_ = sink->metrics->counter("telemetry.polls");
  static_cast<void>(sink->metrics->counter("telemetry.poll_cycles"));
  obs_detections_ = sink->metrics->counter("telemetry.detections");
  obs_clears_ = sink->metrics->counter("telemetry.clears");
}

template <class Self, class Codec>
void ThresholdBackend::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('T', 'H', 'R', 'B'), 2, "threshold backend");
  c.guard(self.windows_.size(), "threshold backend direction count");
  for (auto& window : self.windows_) {
    c.u64(window.packets);
    c.u64(window.drops);
    c.i64(window.polls);
    c.check(window.polls >= 0 && window.polls < kWindowPolls,
            "threshold backend window polls outside [0, kWindowPolls)");
  }
  for (auto& estimate : self.estimates_) c.f64(estimate);
  c.guard(self.corrupting_.size(), "threshold backend link count");
  for (auto& flag : self.corrupting_) c.u8(flag);
}

void ThresholdBackend::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void ThresholdBackend::restore_from(common::snap::Reader& r) {
  walk(*this, r);
}

}  // namespace corropt::detect
