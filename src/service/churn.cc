#include "service/churn.h"

#include <algorithm>

#include "common/lossy.h"
#include "common/rng.h"

namespace corropt::service {

namespace {

// Fraction of reports monitoring withdraws without a repair.
constexpr double kClearedWithoutRepair = 0.1;

}  // namespace

std::vector<TelemetryEvent> make_churn_stream(
    const topology::Topology& topo, const ChurnParams& params) {
  common::Rng rng(params.seed);
  common::Rng trace_rng = rng.fork();
  trace::CorruptionTraceGenerator generator(topo, params.trace, trace_rng);
  const std::vector<trace::TraceEvent> faults = generator.generate();

  std::vector<TelemetryEvent> events;
  events.reserve(faults.size() * 2);
  for (const trace::TraceEvent& arrival : faults) {
    const faults::Fault& fault = arrival.fault;
    for (common::LinkId link : fault.links) {
      // Link-level loss rate: the worst direction this fault induces on
      // the link (monitoring reports per link, not per direction).
      double rate = 0.0;
      for (const faults::DirectionEffect& effect : fault.effects) {
        if (topology::link_of(effect.direction) == link) {
          rate = std::max(rate, effect.corruption_rate);
        }
      }
      if (rate < common::kLossyThreshold) continue;

      TelemetryEvent detected;
      detected.time = arrival.time;
      detected.kind = TelemetryKind::kCorruptionDetected;
      detected.link = link;
      detected.loss_rate = rate;
      events.push_back(detected);

      // Delay from detection to repair completion.
      const double delay =
          rng.exponential(static_cast<double>(common::kMeanRepairTime));
      TelemetryEvent closed;
      closed.time = detected.time + static_cast<common::SimTime>(delay) + 1;
      closed.kind = rng.bernoulli(kClearedWithoutRepair)
                        ? TelemetryKind::kCorruptionCleared
                        : TelemetryKind::kLinkRepaired;
      closed.link = link;
      events.push_back(closed);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TelemetryEvent& a, const TelemetryEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

}  // namespace corropt::service
