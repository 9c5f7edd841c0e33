#include "service/control_loop.h"

#include <bit>
#include <chrono>

#include "common/hash.h"

namespace corropt::service {

ControlLoop::ControlLoop(topology::Topology& topo, ControlLoopConfig config,
                         obs::Sink* sink)
    : topo_(&topo),
      controller_(topo, config.controller, config.penalty),
      sink_(sink) {
  if (sink != nullptr) {
    controller_.set_sink(sink);
    if (sink->metrics != nullptr) {
      obs_decision_timer_ = sink->metrics->timer("service.decision_s");
    }
  }
}

void ControlLoop::process(const TelemetryEvent& event) {
  if (sink_ != nullptr) sink_->now = event.time;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t verdict = 0;
  switch (event.kind) {
    case TelemetryKind::kCorruptionDetected:
      ++stats_.corruption_reports;
      verdict = controller_.on_corruption_detected(event.link,
                                                   event.loss_rate)
                    ? 1
                    : 0;
      break;
    case TelemetryKind::kLinkRepaired:
      ++stats_.repairs;
      controller_.on_link_repaired(event.link);
      break;
    case TelemetryKind::kCorruptionCleared:
      ++stats_.clears;
      controller_.on_corruption_cleared(event.link);
      break;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ++stats_.events;
  stats_.busy_seconds += seconds;
  latencies_.push_back(seconds);
  obs_decision_timer_.record(seconds);

  digest_ = common::fnv1a(digest_, static_cast<std::uint64_t>(event.kind));
  digest_ =
      common::fnv1a(digest_, static_cast<std::uint64_t>(event.link.value()));
  digest_ = common::fnv1a(digest_, verdict);
  digest_ = common::fnv1a(digest_,
                  std::bit_cast<std::uint64_t>(controller_.active_penalty()));
}

std::uint64_t ControlLoop::decisions_digest() const {
  std::uint64_t digest = digest_;
  for (std::uint64_t word : topo_->enabled_mask().words()) {
    digest = common::fnv1a(digest, word);
  }
  const core::Controller::Stats& cs = controller_.stats();
  digest = common::fnv1a(digest, cs.corruption_reports);
  digest = common::fnv1a(digest, cs.disabled_on_arrival);
  digest = common::fnv1a(digest, cs.disabled_on_activation);
  digest = common::fnv1a(digest, cs.tickets_issued);
  digest = common::fnv1a(digest, cs.optimizer_runs);
  return digest;
}

}  // namespace corropt::service
