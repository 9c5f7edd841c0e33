// Section 5.1, heterogeneous per-ToR constraints: "Another limitation of
// a switch-local checker is that it cannot handle different ToR
// requirements well. If one ToR has a high capacity requirement c', all
// upstream switches need to keep c'^(1/r) uplinks active. A switch-local
// checker may not be able to disable a single link in extreme cases."
//
// We give 10% of ToRs (hot racks) a 90% requirement while the rest sit at
// 50%. The switch-local checker must provision for the strictest ToR
// everywhere (sc = sqrt(0.9)), so its disable budget collapses globally;
// CorrOpt's per-ToR path counting confines the strictness to the hot
// racks' upstream links.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "corropt/controller.h"

int main() {
  using namespace corropt;
  bench::print_header("Section 5.1 (per-ToR constraints)",
                      "Hot racks at 90% capacity requirement, others 50%; "
                      "medium DCN, 90-day trace");

  std::printf("%16s %16s %16s %14s\n", "checker", "disabled", "blocked",
              "penalty");
  const core::CheckerMode modes[2] = {core::CheckerMode::kSwitchLocal,
                                      core::CheckerMode::kCorrOpt};
  // The hot racks: every tenth ToR of the medium DCN.
  const std::vector<common::SwitchId> tors =
      topology::build_medium_dcn().tors();
  for (const core::CheckerMode mode : modes) {
    // Switch-local has one global threshold and must be provisioned for
    // the strictest rack; CorrOpt keeps the lax default and raises only
    // the hot racks via per-ToR overrides.
    bench::ScenarioJob job = bench::make_dcn_job(
        "sec51_hetero", bench::Dcn::kMedium, mode,
        mode == core::CheckerMode::kSwitchLocal ? 0.90 : 0.50,
        bench::kFaultsPerLinkPerDay, 90 * common::kDay, /*trace_seed=*/505,
        /*sim_seed=*/10);
    for (std::size_t t = 0; t < tors.size(); t += 10) {
      job.config.tor_overrides.emplace_back(tors[t], 0.90);
    }
    const sim::SimulationMetrics metrics = bench::run_job(job).metrics;
    std::printf("%16s %16zu %16zu %14.3e\n", bench::mode_name(mode),
                metrics.controller.disabled_on_arrival +
                    metrics.controller.disabled_on_activation,
                metrics.undisabled_detections,
                metrics.integrated_penalty);
    std::printf("csv,sec51_hetero,%s,%zu,%zu,%.6e\n", bench::mode_name(mode),
                metrics.controller.disabled_on_arrival +
                    metrics.controller.disabled_on_activation,
                metrics.undisabled_detections, metrics.integrated_penalty);
  }
  std::printf(
      "\nswitch-local provisioned for the strictest rack (sc = sqrt(0.9))\n"
      "can barely disable anything anywhere; CorrOpt pays the strict\n"
      "budget only upstream of the hot racks.\n");
  return 0;
}
