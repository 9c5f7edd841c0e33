#include "detect/threshold.h"

namespace corropt::detect {

ThresholdBackend::ThresholdBackend(const BackendEnv& env)
    : monitor_(*env.state, *env.rng), detector_(*env.topo) {}

void ThresholdBackend::poll(common::SimTime now,
                            std::span<const common::LinkId> suspects,
                            const VerdictCallback& cb) {
  telemetry::DirectionLoad load;
  load.utilization = kPollUtilization;
  for (common::LinkId link : suspects) {
    for (const topology::LinkDirection dir :
         {topology::LinkDirection::kUp, topology::LinkDirection::kDown}) {
      const auto direction = topology::direction_id(link, dir);
      const telemetry::PollSample sample =
          monitor_.poll_direction(direction, now, load);
      const auto verdict = detector_.observe(sample);
      if (verdict.has_value()) cb(*verdict);
    }
  }
}

void ThresholdBackend::reset(common::LinkId link) { detector_.reset(link); }

void ThresholdBackend::attach_sink(obs::Sink* sink) {
  monitor_.set_sink(sink);
  detector_.set_sink(sink);
}

template <class Self, class Codec>
void ThresholdBackend::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('T', 'H', 'R', 'B'), 1, "threshold backend");
  c.object(self.detector_);
}

void ThresholdBackend::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void ThresholdBackend::restore_from(common::snap::Reader& r) {
  walk(*this, r);
}

}  // namespace corropt::detect
