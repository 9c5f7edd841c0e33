// Figure 11: topology pruning. With a 50% capacity constraint, only ToR J
// would violate its constraint if every corrupting link were disabled, so
// the optimizer only reasons about the links upstream of J and disables
// the rest outright.

#include <cstdio>

#include "bench_util.h"
#include "corropt/optimizer.h"
#include "corropt/path_counter.h"
#include "corropt/segmentation.h"
#include "../tests/example_topologies.h"

int main() {
  using namespace corropt;
  bench::print_header("Figure 11",
                      "Topology pruning: only links upstream of "
                      "capacity-endangered ToRs need exact optimization");

  testing::Fig11Example ex = testing::make_fig11_example();
  const core::CapacityConstraint constraint(0.5);
  core::PathCounter counter(ex.topo);

  // Which ToRs would violate the constraint with all corrupting links off?
  core::LinkMask all_off(ex.topo.link_count());
  for (common::LinkId link : ex.corrupting) all_off.set(link.index());
  const auto counts = counter.up_paths(&all_off);
  const auto violated = counter.violated_tors(counts, constraint);
  std::printf("corrupting links: %zu; ToRs endangered if all disabled:",
              ex.corrupting.size());
  for (common::SwitchId tor : violated) {
    std::printf(" %s", ex.topo.switch_at(tor).name.c_str());
  }
  std::printf("\n");

  core::Segmenter segmenter;
  segmenter.split(counter, ex.corrupting, violated);
  std::printf("pruned problem: %zu segment(s)\n", segmenter.size());
  for (std::size_t i = 0; i < segmenter.size(); ++i) {
    const core::SegmentView segment = segmenter.segment(i);
    std::printf("  segment links:");
    for (common::LinkId link : segment.links) {
      const auto& l = ex.topo.link_at(link);
      std::printf(" %s-%s", ex.topo.switch_at(l.lower).name.c_str(),
                  ex.topo.switch_at(l.upper).name.c_str());
    }
    std::printf("  (ToRs:");
    for (common::SwitchId tor : segment.tors) {
      std::printf(" %s", ex.topo.switch_at(tor).name.c_str());
    }
    std::printf(")\n");
  }

  core::CorruptionSet corruption;
  corruption.mark(ex.g_p, 1e-4);
  corruption.mark(ex.h_q, 1e-4);
  corruption.mark(ex.j_r, 1e-3);
  corruption.mark(ex.s_x, 1e-5);
  core::PathCounter paths(ex.topo);
  core::Optimizer optimizer(ex.topo, paths, constraint,
                            core::PenaltyFunction::linear());
  const core::OptimizerResult result = optimizer.run(corruption);
  std::printf(
      "\noptimizer: %zu links disabled by pruning alone, %zu total "
      "disabled,\nremaining penalty %.1e (the lower-rate coupled link stays "
      "in service)\n",
      result.pruned_safe_disables, result.disabled.size(),
      result.remaining_penalty);
  std::printf("csv,fig11,%zu,%zu,%.3e\n", result.pruned_safe_disables,
              result.disabled.size(), result.remaining_penalty);
  std::printf(
      "\npaper: in its instance three corrupting links are outside the\n"
      "pruned topology and safely disabled; here two are, and the coupled\n"
      "pair through ToR J is resolved exactly in a 2-link search space.\n");
  return 0;
}
