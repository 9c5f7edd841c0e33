// Section 3, footnote 3: "This asymmetry implies that a more efficient
// way (in terms of network capacity) to mitigate corruption would be to
// disable only one direction of the link, but since current hardware and
// software does not allow unidirectional links, we disable both
// directions." This bench quantifies the capacity left on the table: for
// a quarter's worth of synthetic faults, how much of the disabled
// capacity belongs to directions that were never corrupting.

#include <cstdio>

#include "bench_util.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

int main() {
  using namespace corropt;
  bench::print_header("Section 3 footnote 3 (unidirectional disabling)",
                      "Healthy link-directions sacrificed by bidirectional "
                      "disabling (large DCN, 90-day trace)");

  const topology::Topology topo = topology::build_large_dcn();
  const auto events = bench::make_trace(topo, bench::kFaultsPerLinkPerDay,
                                        90 * common::kDay, /*seed=*/42);

  std::size_t corrupting_links = 0;
  std::size_t up_only = 0, down_only = 0, both = 0;
  for (const trace::TraceEvent& event : events) {
    // Per affected link, which directions this fault corrupts.
    for (common::LinkId link : event.fault.links) {
      bool up = false, down = false;
      for (const faults::DirectionEffect& effect : event.fault.effects) {
        if (topology::link_of(effect.direction) != link) continue;
        if (effect.corruption_rate < 1e-8) continue;
        (topology::direction_of(effect.direction) ==
                 topology::LinkDirection::kUp
             ? up
             : down) = true;
      }
      if (!up && !down) continue;
      ++corrupting_links;
      if (up && down) {
        ++both;
      } else if (up) {
        ++up_only;
      } else {
        ++down_only;
      }
    }
  }

  std::printf("corrupting links in trace:        %zu\n", corrupting_links);
  std::printf("  corrupt upstream only:          %zu (%.1f%%)\n", up_only,
              100.0 * up_only / corrupting_links);
  std::printf("  corrupt downstream only:        %zu (%.1f%%)\n", down_only,
              100.0 * down_only / corrupting_links);
  std::printf("  corrupt both directions:        %zu (%.1f%%)\n", both,
              100.0 * both / corrupting_links);
  const double healthy_dirs =
      static_cast<double>(up_only + down_only) /
      static_cast<double>(2 * corrupting_links - both) * 2.0;
  std::printf(
      "\ndisabling both directions throws away %zu healthy directions —\n"
      "%.0f%% of the direction-capacity removed. Unidirectional disabling\n"
      "would also leave every ToR's upstream path count untouched for the\n"
      "%.1f%% of corrupting links whose corruption is downstream-only.\n",
      up_only + down_only, 100.0 * (up_only + down_only) /
                               (2.0 * corrupting_links),
      100.0 * down_only / corrupting_links);
  (void)healthy_dirs;
  std::printf("csv,ablation_unidir,%zu,%zu,%zu,%zu\n", corrupting_links,
              up_only, down_only, both);
  return 0;
}
