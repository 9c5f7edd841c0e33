#include "sim/metrics.h"

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

std::uint64_t digest(const SimulationMetrics& metrics) {
  common::snap::Writer w;
  SimulationMetrics::walk(metrics, w);
  core::Controller::Stats::walk(metrics.controller, w);
  return common::snap::digest(w.take());
}

void write_controller_json(common::JsonWriter& json,
                           const core::Controller::Stats& stats) {
  json.key("controller").begin_object();
  json.member("corruption_reports", stats.corruption_reports);
  json.member("disabled_on_arrival", stats.disabled_on_arrival);
  json.member("disabled_on_activation", stats.disabled_on_activation);
  json.member("tickets_issued", stats.tickets_issued);
  json.member("optimizer_runs", stats.optimizer_runs);
  json.end_object();
}

}  // namespace corropt::sim
