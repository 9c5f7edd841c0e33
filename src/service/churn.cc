#include "service/churn.h"

#include <algorithm>
#include <cmath>

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

  // Backend shaping (no-op for the default threshold backend). Shaping
  // draws come from CounterRng keyed on (seed, link, onset), never from
  // the sequential stream above, so enabling a backend cannot perturb
  // the fault trace or the repair delays.
  const detect::BackendProfile profile =
      detect::backend_profile(params.backend.kind);

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
      if (profile.extra_latency_mean_s > 0.0) {
        common::CounterRng keyed(params.seed, link.value(),
                                 static_cast<std::uint64_t>(arrival.time));
        detected.time += static_cast<common::SimTime>(
            -profile.extra_latency_mean_s * std::log1p(-keyed.uniform()));
      }
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

      if (profile.false_positive_fraction > 0.0) {
        // One spurious report per genuine one at the backend's rate: a
        // random link reported just above the threshold, withdrawn by
        // monitoring a detection window later.
        common::CounterRng keyed(params.seed + 1, link.value(),
                                 static_cast<std::uint64_t>(arrival.time));
        if (keyed.bernoulli(profile.false_positive_fraction)) {
          auto victim = static_cast<std::uint32_t>(
              keyed.uniform() * static_cast<double>(topo.link_count()));
          if (victim >= topo.link_count()) {
            victim = static_cast<std::uint32_t>(topo.link_count()) - 1;
          }
          TelemetryEvent spurious;
          spurious.time = detected.time;
          spurious.kind = TelemetryKind::kCorruptionDetected;
          spurious.link = common::LinkId(victim);
          spurious.loss_rate = 2.0 * common::kLossyThreshold;
          events.push_back(spurious);
          TelemetryEvent retracted;
          retracted.time = detected.time + common::kHour;
          retracted.kind = TelemetryKind::kCorruptionCleared;
          retracted.link = common::LinkId(victim);
          events.push_back(retracted);
        }
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TelemetryEvent& a, const TelemetryEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

}  // namespace corropt::service
