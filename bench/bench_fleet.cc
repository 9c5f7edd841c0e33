// Fleet campaign: the paper's 70-DC CorrOpt deployment in one run.
//
// Builds a heterogeneous FleetSpec (fleet::make_deployment_fleet), shards
// the whole-DC simulations across a thread pool, and prints per-DC rows
// plus fleet-level penalty/availability aggregates. BENCH_fleet.json
// (written through fleet::write_fleet_json) is byte-identical for any
// --threads value: the per-DC seeds are counter-keyed by stable DC keys
// and results merge in canonical key order — see DESIGN.md §11.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>

#include "bench_util.h"
#include "fleet/fleet_campaign.h"
#include "fleet/fleet_json.h"
#include "fleet/fleet_spec.h"

namespace {

// Campaign sizes past this are a typo, not a fleet (the paper's has 70).
constexpr std::uint64_t kMaxDcs = 1000;

}  // namespace

int main(int argc, char** argv) {
  using namespace corropt;
  std::optional<std::uint64_t> dcs;
  std::optional<std::uint64_t> seed;
  const bench::NumberFlag flags[] = {
      {.name = "--dcs",
       .help = "data centers in the campaign, 1..1000 (default: 70)",
       .min = 1,
       .max = kMaxDcs,
       .value = &dcs},
      {.name = "--seed", .help = "fleet base seed (default: 2017)",
       .value = &seed},
  };
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, flags);
  bench::print_header("Fleet deployment",
                      "CorrOpt across a heterogeneous fleet of data centers "
                      "(Section 7 deployment, synthesized)");

  const common::SimDuration duration = args.duration_or(90 * common::kDay);
  const fleet::FleetSpec spec = fleet::make_deployment_fleet(
      dcs.value_or(70), duration, seed.value_or(2017));

  std::size_t expected_links = 0;
  for (const fleet::DcSpec& dc : spec.dcs) {
    expected_links += fleet::expected_link_count(dc);
  }
  std::printf("%zu DCs, %zu links, %.0f simulated days, %zu threads\n\n",
              spec.dcs.size(), expected_links, common::to_days(duration),
              args.threads);

  fleet::CampaignOptions options;
  options.threads = args.threads;
  options.collect_obs = args.obs;
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
              args.threads);

  bench::write_output(args.json_path("fleet"), "DCs", [&](std::ostream& out) {
    fleet::write_fleet_json(out, result, "bench_fleet");
    return result.dcs.size();
  });

  bench::write_obs_outputs(args, "fleet", "bench_fleet", result.dcs);
  return 0;
}
