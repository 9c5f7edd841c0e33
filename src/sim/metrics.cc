#include "sim/metrics.h"

#include <bit>

#include "common/hash.h"
#include "obs/metrics.h"

namespace corropt::sim {

void publish_metrics(const obs::Sink* sink, const SimulationMetrics& metrics) {
  if (sink == nullptr || sink->metrics == nullptr) return;
  obs::MetricsRegistry& reg = *sink->metrics;
  reg.counter("sim.faults_injected").add(metrics.faults_injected);
  reg.counter("sim.tickets_opened").add(metrics.tickets_opened);
  reg.counter("sim.repair_attempts").add(metrics.repair_attempts);
  reg.counter("sim.first_attempts").add(metrics.first_attempts);
  reg.counter("sim.first_attempt_successes")
      .add(metrics.first_attempt_successes);
  reg.counter("sim.redetections").add(metrics.redetections);
  reg.counter("sim.polled_detections").add(metrics.polled_detections);
  reg.counter("sim.undisabled_detections").add(metrics.undisabled_detections);
  reg.counter("sim.maintenance_windows").add(metrics.maintenance_windows);
  reg.counter("sim.maintenance_capacity_violations")
      .add(metrics.maintenance_capacity_violations);
  reg.counter("sim.penalty_samples").add(metrics.penalty_series.size());
  reg.gauge("sim.integrated_penalty").set(metrics.integrated_penalty);
  reg.gauge("sim.mean_tor_fraction").set(metrics.mean_tor_fraction);
  reg.gauge("sim.first_attempt_accuracy")
      .set(metrics.first_attempt_accuracy());
  reg.gauge("sim.mean_ticket_resolution_s")
      .set(metrics.mean_ticket_resolution_s);
  reg.gauge("sim.mean_detection_latency_s")
      .set(metrics.mean_detection_latency_s);
  reg.gauge("sim.collateral_link_seconds")
      .set(metrics.collateral_link_seconds);
}

std::uint64_t digest(const SimulationMetrics& m) {
  std::uint64_t h = common::kFnvBasis;
  const auto mix = [&h](std::uint64_t v) { h = common::fnv1a(h, v); };
  const auto mix_f = [&mix](double v) {
    mix(std::bit_cast<std::uint64_t>(v));
  };
  const auto mix_series = [&](const std::vector<TimePoint>& series) {
    mix(series.size());
    for (const TimePoint& p : series) {
      mix(static_cast<std::uint64_t>(p.time));
      mix_f(p.value);
    }
  };
  mix_f(m.integrated_penalty);
  mix_f(m.mean_tor_fraction);
  mix(m.faults_injected);
  mix(m.tickets_opened);
  mix(m.repair_attempts);
  mix(m.first_attempts);
  mix(m.first_attempt_successes);
  mix(m.redetections);
  mix(m.polled_detections);
  mix_f(m.mean_detection_latency_s);
  mix(m.false_positive_detections);
  mix(m.missed_detections);
  mix_f(m.mean_ticket_resolution_s);
  mix(m.maintenance_windows);
  mix(m.maintenance_capacity_violations);
  mix_f(m.collateral_link_seconds);
  mix(m.undisabled_detections);
  mix(m.controller.corruption_reports);
  mix(m.controller.disabled_on_arrival);
  mix(m.controller.disabled_on_activation);
  mix(m.controller.tickets_issued);
  mix(m.controller.optimizer_runs);
  mix_series(m.penalty_series);
  mix(m.hourly_penalty.size());
  for (const double v : m.hourly_penalty) mix_f(v);
  mix_series(m.worst_tor_fraction);
  mix_series(m.disabled_links);
  mix(m.detection_latencies_s.size());
  for (const double v : m.detection_latencies_s) mix_f(v);
  return h;
}

}  // namespace corropt::sim
