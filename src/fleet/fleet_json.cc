#include "fleet/fleet_json.h"

#include <sstream>

#include "common/json.h"
#include "sim/metrics.h"

namespace corropt::fleet {

namespace {

void write_dc_row(common::JsonWriter& json, const DcResult& dc) {
  json.begin_object();
  json.member("name", dc.name);
  json.key("tags").begin_object();
  json.member("shape", shape_name(dc.shape));
  json.member("key", dc.key);
  if (dc.backend != detect::BackendKind::kThreshold) {
    // Tagged only when non-default so all-threshold fleet documents
    // (BENCH_fleet.json) serialize byte-for-byte as before.
    json.member("backend", std::string(detect::backend_name(dc.backend)));
  }
  json.end_object();
  json.member("link_count", dc.link_count);
  json.member("switch_count", dc.switch_count);
  json.member("trace_events", dc.trace_events);
  json.member("capacity_fraction", dc.capacity_fraction);
  json.member("faults_per_link_per_day", dc.faults_per_link_per_day);
  json.key("metrics").begin_object();
  json.member("integrated_penalty", dc.metrics.integrated_penalty);
  json.member("mean_tor_fraction", dc.metrics.mean_tor_fraction);
  json.member("min_worst_tor_fraction", dc.min_worst_tor_fraction);
  json.member("faults_injected", dc.metrics.faults_injected);
  json.member("tickets_opened", dc.metrics.tickets_opened);
  json.member("repair_attempts", dc.metrics.repair_attempts);
  json.member("first_attempt_accuracy", dc.metrics.first_attempt_accuracy());
  json.member("mean_ticket_resolution_s",
              dc.metrics.mean_ticket_resolution_s);
  json.member("undisabled_detections", dc.metrics.undisabled_detections);
  sim::write_controller_json(json, dc.metrics.controller);
  json.end_object();
  json.end_object();
}

void write_fleet_aggregates(common::JsonWriter& json,
                            const FleetMetrics& fleet) {
  json.key("fleet").begin_object();
  json.member("dc_count", fleet.dc_count);
  json.member("total_links", fleet.total_links);
  json.member("total_switches", fleet.total_switches);
  json.member("total_trace_events", fleet.total_trace_events);
  json.member("integrated_penalty", fleet.integrated_penalty);
  json.member("mean_dc_penalty", fleet.mean_dc_penalty);
  json.member("max_dc_penalty", fleet.max_dc_penalty);
  json.member("min_dc_penalty", fleet.min_dc_penalty);
  json.member("worst_dc", fleet.worst_dc);
  json.member("mean_tor_fraction", fleet.mean_tor_fraction);
  json.member("worst_tor_fraction", fleet.worst_tor_fraction);
  json.member("faults_injected", fleet.faults_injected);
  json.member("tickets_opened", fleet.tickets_opened);
  json.member("repair_attempts", fleet.repair_attempts);
  json.member("first_attempt_accuracy", fleet.first_attempt_accuracy());
  json.member("redetections", fleet.redetections);
  json.member("mean_ticket_resolution_s", fleet.mean_ticket_resolution_s);
  json.member("undisabled_detections", fleet.undisabled_detections);
  sim::write_controller_json(json, fleet.controller);
  json.end_object();
}

}  // namespace

void write_fleet_json(std::ostream& out, const FleetResult& result,
                      const std::string& generator) {
  common::JsonWriter json(out);
  // No "threads": the fleet document is defined to be
  // thread-count-invariant, so the one field that records pool size is
  // deliberately absent (the stdout summary reports it instead).
  common::begin_document(json, "corropt-bench-metrics/1", "fleet", generator);
  json.key("scenarios").begin_array();
  for (const DcResult& dc : result.dcs) write_dc_row(json, dc);
  json.end_array();
  write_fleet_aggregates(json, result.fleet);
  json.end_object();
}

std::string fleet_json_string(const FleetResult& result,
                              const std::string& generator) {
  std::ostringstream out;
  write_fleet_json(out, result, generator);
  return out.str();
}

}  // namespace corropt::fleet
