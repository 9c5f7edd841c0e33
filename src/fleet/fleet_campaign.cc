#include "fleet/fleet_campaign.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace corropt::fleet {

FleetCampaign::FleetCampaign(FleetSpec spec) : spec_(std::move(spec)) {}

DcResult run_dc(const FleetSpec& fleet, const DcSpec& dc, bool collect_obs) {
  // The DESIGN.md §7 recipe with the DC's derived seeds, so a 1-DC fleet
  // reproduces a standalone MitigationSimulation run bit-for-bit
  // (tests/fleet_test.cc holds the repo to that).
  sim::Scenario scenario;
  scenario.name = dc.name;
  scenario.topology = [&dc] { return build_dc_topology(dc); };
  scenario.trace = dc.trace;
  scenario.trace_seed = derive_dc_seed(fleet.seed, dc.key, SeedStream::kTrace);
  scenario.config = dc.config;
  scenario.config.seed = derive_dc_seed(fleet.seed, dc.key, SeedStream::kSim);
  scenario.collect_obs = collect_obs;

  sim::ScenarioRun run = sim::run_scenario(scenario);
  double min_worst_tor_fraction = 1.0;
  for (const sim::TimePoint& p : run.metrics.worst_tor_fraction) {
    min_worst_tor_fraction = std::min(min_worst_tor_fraction, p.value);
  }
  return DcResult{std::move(run),
                  dc.key,
                  dc.shape,
                  dc.config.backend.kind,
                  dc.config.capacity_fraction,
                  dc.trace.faults_per_link_per_day,
                  min_worst_tor_fraction};
}

FleetMetrics merge_results(const std::vector<DcResult>& dcs) {
  FleetMetrics fleet;
  fleet.dc_count = dcs.size();
  if (dcs.empty()) return fleet;

  fleet.min_dc_penalty = dcs.front().metrics.integrated_penalty;
  double tor_fraction_weighted = 0.0;
  double resolution_weighted = 0.0;
  for (const DcResult& dc : dcs) {
    fleet.total_links += dc.link_count;
    fleet.total_switches += dc.switch_count;
    fleet.total_trace_events += dc.trace_events;

    const double penalty = dc.metrics.integrated_penalty;
    fleet.integrated_penalty += penalty;
    if (penalty > fleet.max_dc_penalty || fleet.worst_dc.empty()) {
      fleet.max_dc_penalty = penalty;
      fleet.worst_dc = dc.name;
    }
    fleet.min_dc_penalty = std::min(fleet.min_dc_penalty, penalty);

    tor_fraction_weighted +=
        dc.metrics.mean_tor_fraction * static_cast<double>(dc.link_count);
    fleet.worst_tor_fraction =
        std::min(fleet.worst_tor_fraction, dc.min_worst_tor_fraction);

    fleet.faults_injected += dc.metrics.faults_injected;
    fleet.tickets_opened += dc.metrics.tickets_opened;
    fleet.repair_attempts += dc.metrics.repair_attempts;
    fleet.first_attempts += dc.metrics.first_attempts;
    fleet.first_attempt_successes += dc.metrics.first_attempt_successes;
    fleet.redetections += dc.metrics.redetections;
    fleet.undisabled_detections += dc.metrics.undisabled_detections;
    resolution_weighted += dc.metrics.mean_ticket_resolution_s *
                           static_cast<double>(dc.metrics.tickets_opened);

    fleet.controller.corruption_reports +=
        dc.metrics.controller.corruption_reports;
    fleet.controller.disabled_on_arrival +=
        dc.metrics.controller.disabled_on_arrival;
    fleet.controller.disabled_on_activation +=
        dc.metrics.controller.disabled_on_activation;
    fleet.controller.tickets_issued += dc.metrics.controller.tickets_issued;
    fleet.controller.optimizer_runs += dc.metrics.controller.optimizer_runs;
  }
  fleet.mean_dc_penalty =
      fleet.integrated_penalty / static_cast<double>(dcs.size());
  if (fleet.total_links > 0) {
    fleet.mean_tor_fraction =
        tor_fraction_weighted / static_cast<double>(fleet.total_links);
  }
  if (fleet.tickets_opened > 0) {
    fleet.mean_ticket_resolution_s =
        resolution_weighted / static_cast<double>(fleet.tickets_opened);
  }
  return fleet;
}

FleetResult FleetCampaign::run(const CampaignOptions& options) const {
  std::vector<DcResult> results(spec_.dcs.size());
  common::ThreadPool pool(options.threads);
  common::parallel_for_each(pool, spec_.dcs.size(), [&](std::size_t i) {
    results[i] = run_dc(spec_, spec_.dcs[i], options.collect_obs);
  });

  // Canonical order: ascending key (name as tie-break), so the merged
  // floating-point sums and the serialized per-DC rows are independent of
  // the order DCs were listed in the spec.
  std::stable_sort(results.begin(), results.end(),
                   [](const DcResult& a, const DcResult& b) {
                     return a.key != b.key ? a.key < b.key : a.name < b.name;
                   });

  FleetResult out;
  out.fleet = merge_results(results);
  out.dcs = std::move(results);
  return out;
}

}  // namespace corropt::fleet
