// Fleet campaign: the paper's 70-DC CorrOpt deployment in one run.
//
// Builds a heterogeneous FleetSpec (fleet::make_deployment_fleet), shards
// the whole-DC simulations across a thread pool, and prints per-DC rows
// plus fleet-level penalty/availability aggregates. BENCH_fleet.json
// (written through fleet::write_fleet_json) is byte-identical for any
// --threads value: the per-DC seeds are counter-keyed by stable DC keys
// and results merge in canonical key order — see DESIGN.md §11.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fleet/fleet_campaign.h"
#include "fleet/fleet_json.h"
#include "fleet/fleet_spec.h"

namespace {

struct FleetArgs {
  corropt::bench::BenchArgs base;
  std::size_t dcs = 70;  // the paper's deployment size
  std::uint64_t seed = 2017;
};

FleetArgs parse_fleet_args(int argc, char** argv) {
  FleetArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      args.base.quick = true;
    } else if (arg == "--obs") {
      args.base.obs = true;
    } else if (arg.rfind("--threads=", 0) == 0 &&
               corropt::bench::parse_thread_count(arg.substr(10),
                                                  args.base.threads)) {
      // Parsed; a malformed count falls through to the usage below.
    } else if (arg.rfind("--json-dir=", 0) == 0) {
      args.base.json_dir = arg.substr(11);
    } else if (arg.rfind("--dcs=", 0) == 0) {
      const long parsed = std::strtol(arg.c_str() + 6, nullptr, 10);
      if (parsed > 0) args.dcs = static_cast<std::size_t>(parsed);
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--quick] [--obs] [--threads=N] [--json-dir=DIR]\n"
          "          [--dcs=N] [--seed=S]\n"
          "  --quick       cap simulated duration at 10 days\n"
          "  --obs         collect per-DC metrics + decision journal\n"
          "                (OBS_fleet*.{jsonl,json})\n"
          "  --threads=N   worker threads, 1..256 (default: BENCH_THREADS\n"
          "                env or hardware concurrency)\n"
          "  --json-dir=D  directory for BENCH_fleet.json (default: .)\n"
          "  --dcs=N       data centers in the campaign (default: 70)\n"
          "  --seed=S      fleet base seed (default: 2017)\n",
          argv[0]);
      std::exit(2);
    }
  }
  return args;
}

// Adapts DcResults to bench::ScenarioResult so --obs reuses the standard
// OBS_<exhibit>.jsonl / OBS_<exhibit>_metrics.json writers.
std::vector<corropt::bench::ScenarioResult> to_scenario_results(
    const std::vector<corropt::fleet::DcResult>& dcs) {
  std::vector<corropt::bench::ScenarioResult> out;
  out.reserve(dcs.size());
  for (const corropt::fleet::DcResult& dc : dcs) {
    corropt::bench::ScenarioResult r;
    r.name = dc.name;
    r.tags = {{"shape", corropt::fleet::shape_name(dc.shape)}};
    r.metrics = dc.metrics;
    r.link_count = dc.link_count;
    r.wall_seconds = dc.wall_seconds;
    r.has_obs = dc.has_obs;
    r.obs_metrics = dc.obs_metrics;
    r.journal = dc.journal;
    r.journal_dropped = dc.journal_dropped;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corropt;
  const FleetArgs args = parse_fleet_args(argc, argv);
  bench::print_header("Fleet deployment",
                      "CorrOpt across a heterogeneous fleet of data centers "
                      "(Section 7 deployment, synthesized)");

  const common::SimDuration duration =
      args.base.duration_or(90 * common::kDay);
  const fleet::FleetSpec spec =
      fleet::make_deployment_fleet(args.dcs, duration, args.seed);

  std::size_t expected_links = 0;
  for (const fleet::DcSpec& dc : spec.dcs) {
    expected_links += fleet::expected_link_count(dc);
  }
  std::printf("%zu DCs, %zu links, %.0f simulated days, %zu threads\n\n",
              spec.dcs.size(), expected_links, common::to_days(duration),
              args.base.threads);

  fleet::CampaignOptions options;
  options.threads = args.base.threads;
  options.collect_obs = args.base.obs;
  const auto start = std::chrono::steady_clock::now();
  const fleet::FleetResult result = fleet::FleetCampaign(spec).run(options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("%-14s %6s %8s %9s %8s %14s %9s %8s\n", "dc", "shape", "links",
              "cap", "faults", "penalty", "mean-tor", "wall-s");
  for (const fleet::DcResult& dc : result.dcs) {
    std::printf("%-14s %6s %8zu %9.3f %8zu %14.3e %9.4f %8.2f\n",
                dc.name.c_str(), fleet::shape_name(dc.shape), dc.link_count,
                dc.capacity_fraction, dc.metrics.faults_injected,
                dc.metrics.integrated_penalty, dc.metrics.mean_tor_fraction,
                dc.wall_seconds);
  }

  const fleet::FleetMetrics& fm = result.fleet;
  std::printf("\n--- fleet aggregates (%zu DCs, %zu links) ---\n", fm.dc_count,
              fm.total_links);
  std::printf("integrated penalty: %.3e (mean %.3e, max %.3e at %s)\n",
              fm.integrated_penalty, fm.mean_dc_penalty, fm.max_dc_penalty,
              fm.worst_dc.c_str());
  std::printf("mean ToR spine-path fraction (link-weighted): %.4f\n",
              fm.mean_tor_fraction);
  std::printf("worst sampled ToR fraction anywhere: %.4f\n",
              fm.worst_tor_fraction);
  std::printf("faults %zu, tickets %zu, repair attempts %zu, "
              "first-attempt accuracy %.3f\n",
              fm.faults_injected, fm.tickets_opened, fm.repair_attempts,
              fm.first_attempt_accuracy());
  std::printf("corrupting links never disabled: %zu\n",
              fm.undisabled_detections);
  std::printf("campaign wall time: %.2f s on %zu threads\n", wall,
              args.base.threads);

  const std::string path = args.base.json_path("fleet");
  fleet::write_fleet_json_file(path, result, "bench_fleet");
  std::printf("wrote %s (%zu DCs)\n", path.c_str(), result.dcs.size());

  if (args.base.obs) {
    const auto scenario_results = to_scenario_results(result.dcs);
    bench::write_obs_outputs(args.base, "fleet", "bench_fleet",
                             scenario_results);
  }
  return 0;
}
