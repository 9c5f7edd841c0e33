// Fleet campaign driver: shard whole-DC simulations, merge deterministically.
//
// Each DC in a FleetSpec is one sim::Scenario — the DC's topology, its
// trace from the DC's derived trace seed, its config under the derived
// sim seed — run by sim::run_scenario across a common::ThreadPool.
// Per-DC results are then ordered canonically (by DcSpec::key) and folded
// into fleet-level aggregates in that order, so both the per-DC rows and
// every floating-point sum are bit-identical for any thread count and any
// submission order of FleetSpec::dcs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_spec.h"
#include "sim/scenario.h"

namespace corropt::fleet {

// Outcome of one DC's simulation: its sim::ScenarioRun (name, metrics,
// link/switch/trace-event counts, wall clock, obs capture) plus the
// DC's identity and headline parameters. wall_seconds is printed in the
// stdout table but never serialized into BENCH_fleet.json.
struct DcResult : sim::ScenarioRun {
  std::uint64_t key = 0;
  DcShape shape = DcShape::kMediumDcn;
  // Detection backend the DC's config selected; tagged in the JSON row
  // only when non-default, so all-threshold fleets serialize unchanged.
  detect::BackendKind backend = detect::BackendKind::kThreshold;
  double capacity_fraction = 0.0;
  double faults_per_link_per_day = 0.0;
  // Minimum over the run of the sampled worst-ToR spine-path fraction.
  double min_worst_tor_fraction = 1.0;
};

// Fleet-level aggregates, folded over DcResults in canonical key order.
struct FleetMetrics {
  std::size_t dc_count = 0;
  std::size_t total_links = 0;
  std::size_t total_switches = 0;
  std::size_t total_trace_events = 0;

  // Penalty (integrated over each DC's run, summed across the fleet).
  double integrated_penalty = 0.0;
  double mean_dc_penalty = 0.0;
  double max_dc_penalty = 0.0;
  double min_dc_penalty = 0.0;
  // Name of the DC with the largest integrated penalty.
  std::string worst_dc;

  // Availability. mean_tor_fraction weights each DC by its link count;
  // worst_tor_fraction is the fleet-wide minimum of the sampled per-DC
  // worst-ToR spine-path fraction.
  double mean_tor_fraction = 1.0;
  double worst_tor_fraction = 1.0;

  // Repair bookkeeping, summed.
  std::size_t faults_injected = 0;
  std::size_t tickets_opened = 0;
  std::size_t repair_attempts = 0;
  std::size_t first_attempts = 0;
  std::size_t first_attempt_successes = 0;
  std::size_t redetections = 0;
  std::size_t undisabled_detections = 0;
  // Tickets-weighted mean resolution time across DCs.
  double mean_ticket_resolution_s = 0.0;

  core::Controller::Stats controller;

  [[nodiscard]] double first_attempt_accuracy() const {
    return first_attempts == 0
               ? 0.0
               : static_cast<double>(first_attempt_successes) /
                     static_cast<double>(first_attempts);
  }
};

struct FleetResult {
  FleetMetrics fleet;
  // Canonical order: ascending DcSpec::key (name as tie-break).
  std::vector<DcResult> dcs;
};

struct CampaignOptions {
  std::size_t threads = 1;
  // Attach a per-DC obs sink (metrics registry + decision journal) and
  // return the folded snapshot/journal in each DcResult. Ignored for DCs
  // whose config already wired a sink.
  bool collect_obs = false;
};

class FleetCampaign {
 public:
  explicit FleetCampaign(FleetSpec spec);

  // Runs every DC and merges. Deterministic: the returned FleetResult is
  // identical for any options.threads and any order of the spec's dcs.
  [[nodiscard]] FleetResult run(const CampaignOptions& options = {}) const;

 private:
  FleetSpec spec_;
};

// Runs one DC synchronously on the calling thread (also used by the
// campaign's workers): the DC's scenario is its topology, its trace from
// the DC's kTrace seed, and its config with config.seed replaced by the
// DC's kSim seed.
[[nodiscard]] DcResult run_dc(const FleetSpec& fleet, const DcSpec& dc,
                              bool collect_obs = false);

// Folds per-DC results (already in canonical order) into FleetMetrics.
[[nodiscard]] FleetMetrics merge_results(const std::vector<DcResult>& dcs);

}  // namespace corropt::fleet
