// Figure 10: the worked example showing why switch-local checking is
// sub-optimal. One ToR T with five uplinks to aggregation switches A-E,
// each with five spine uplinks; 16 corrupting links; ToR capacity
// constraint c = 60%.
//   (a) sc = c:        disables 8 links but violates T's constraint;
//   (b) sc = sqrt(c):  safe but disables only 4 links;
//   (c) optimum:       disables 12 links and meets the constraint exactly.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "corropt/optimizer.h"
#include "corropt/path_counter.h"
#include "corropt/switch_local.h"
#include "../tests/example_topologies.h"

int main() {
  using namespace corropt;
  bench::print_header("Figure 10",
                      "Switch-local vs optimal link disabling, ToR capacity "
                      "constraint c = 60% (25 design paths, 16 corrupting "
                      "links)");

  const core::CapacityConstraint constraint(0.6);

  auto report = [&](const char* label, const topology::Topology& topo,
                    common::SwitchId tor, std::size_t disabled) {
    core::PathCounter counter(topo);
    const auto counts = counter.up_paths();
    const auto paths = counts[tor.index()];
    const bool ok = counter.feasible(counts, constraint);
    std::printf("%-24s disabled=%2zu  T paths=%2llu/25 (%3.0f%%)  constraint "
                "%s\n",
                label, disabled, static_cast<unsigned long long>(paths),
                paths * 4.0, ok ? "met" : "VIOLATED");
    std::printf("csv,fig10,%s,%zu,%llu,%d\n", label, disabled,
                static_cast<unsigned long long>(paths), ok ? 1 : 0);
  };

  {
    testing::Fig10Example ex = testing::make_fig10_example();
    core::SwitchLocalChecker checker(ex.topo, 0.6);  // sc = c (unsafe).
    std::size_t disabled = 0;
    for (common::LinkId link : ex.corrupting) {
      if (checker.try_disable(link)) ++disabled;
    }
    report("(a) switch-local sc=c", ex.topo, ex.tor, disabled);
  }
  {
    testing::Fig10Example ex = testing::make_fig10_example();
    core::SwitchLocalChecker checker(ex.topo, std::sqrt(0.6));
    std::size_t disabled = 0;
    for (common::LinkId link : ex.corrupting) {
      if (checker.try_disable(link)) ++disabled;
    }
    report("(b) switch-local sc=sqrt(c)", ex.topo, ex.tor, disabled);
  }
  {
    testing::Fig10Example ex = testing::make_fig10_example();
    core::CorruptionSet corruption;
    for (common::LinkId link : ex.corrupting) corruption.mark(link, 1e-3);
    core::PathCounter paths(ex.topo);
    core::Optimizer optimizer(ex.topo, paths, constraint,
                              core::PenaltyFunction::linear());
    const core::OptimizerResult result = optimizer.run(corruption);
    report("(c) optimal (CorrOpt)", ex.topo, ex.tor, result.disabled.size());
    std::printf("    optimizer: %zu subsets evaluated, %zu reject-cache "
                "skips, exact=%s\n",
                result.subsets_evaluated, result.cache_skips,
                result.exact ? "yes" : "no");
  }

  std::printf(
      "\npaper: 8 disabled (constraint violated) / 4 disabled / 12 "
      "disabled.\nThe diagram's exact red-link placement is not recoverable "
      "from the\ntext; this reconstruction reproduces all three headline "
      "counts and\nthe violation in (a) (13/25 paths here vs 9/25 in the "
      "paper's instance).\n");
  return 0;
}
