// Section 2: "This high level of corruption loss happens even though
// there is already a system to discover and turn off links with
// corruption... we estimate that without it, corruption-induced losses
// would be two orders of magnitude higher." This bench measures that
// estimate on our traces: no mitigation at all, the switch-local status
// quo, and CorrOpt.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace corropt;
  bench::print_header("Section 2 (value of existing mitigation)",
                      "Integrated corruption losses with no mitigation vs "
                      "switch-local vs CorrOpt (large DCN, c=75%, 90 days)");

  const auto penalty = [](core::CheckerMode mode, double capacity_fraction) {
    return bench::run_job(bench::make_dcn_job(
                              "sec2", bench::Dcn::kLarge, mode,
                              capacity_fraction, bench::kFaultsPerLinkPerDay,
                              90 * common::kDay, 909, 14))
        .metrics.integrated_penalty;
  };
  // No mitigation: an impossible capacity requirement disables nothing
  // and, with no tickets, nothing is ever repaired.
  const double none = penalty(core::CheckerMode::kSwitchLocal, 1.0);
  const double local = penalty(core::CheckerMode::kSwitchLocal, 0.75);
  const double corropt_penalty = penalty(core::CheckerMode::kCorrOpt, 0.75);

  std::printf("%-26s %16s %20s\n", "system", "penalty", "vs no mitigation");
  std::printf("%-26s %16.3e %20s\n", "none", none, "1x");
  std::printf("%-26s %16.3e %19.0fx\n", "switch-local (status quo)", local,
              none / local);
  std::printf("%-26s %16.3e %19.0fx\n", "CorrOpt", corropt_penalty,
              corropt_penalty == 0.0 ? 0.0 : none / corropt_penalty);
  std::printf("csv,sec2,%.6e,%.6e,%.6e\n", none, local, corropt_penalty);
  std::printf(
      "\npaper: the deployed (switch-local) system already buys about two\n"
      "orders of magnitude over doing nothing; CorrOpt adds three to six\n"
      "more (Figure 17).\n");
  return 0;
}
