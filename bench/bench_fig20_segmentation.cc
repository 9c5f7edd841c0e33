// Figure 20 + Section 8: topology segmentation. Shows (i) the worked
// example — two groups of corrupting links whose disable decisions are
// independent and can be optimized separately — and (ii) an ablation on
// the large DCN measuring how segmentation (plus pruning and the reject
// cache) shrinks the optimizer's search. The ablation configurations
// run as independent jobs on the ScenarioRunner pool (--threads), each
// regenerating the identical corruption scenario from the same derived
// seed; results land in BENCH_fig20.json alongside the csv rows.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "corropt/optimizer.h"
#include "corropt/segmentation.h"
#include "study_util.h"
#include "topology/fat_tree.h"

namespace {

using namespace corropt;

// A clustered corruption scenario on the large DCN: in each affected
// pod, two ToR breakout pairs (which endanger their ToRs at a demanding
// constraint) plus one aggregation octet bundle (coupled to those ToRs
// through shared paths). Each pod becomes one optimizer segment of ~12
// links; without segmentation they merge into one intractable blob.
core::CorruptionSet clustered_corruption(const topology::Topology& topo,
                                         int pods, common::Rng& rng) {
  core::CorruptionSet corruption;
  // Group ToRs by pod.
  std::vector<std::vector<common::SwitchId>> by_pod;
  for (common::SwitchId tor : topo.tors()) {
    const int pod = topo.switch_at(tor).pod;
    if (pod < 0) continue;
    if (static_cast<std::size_t>(pod) >= by_pod.size()) {
      by_pod.resize(static_cast<std::size_t>(pod) + 1);
    }
    by_pod[static_cast<std::size_t>(pod)].push_back(tor);
  }
  const auto picked = rng.sample_without_replacement(
      by_pod.size(), static_cast<std::size_t>(pods));
  for (std::size_t pod : picked) {
    const auto& tors = by_pod[pod];
    // Two ToR breakout pairs on distinct ToRs.
    for (int t = 0; t < 2; ++t) {
      const auto tor = tors[rng.uniform_index(tors.size())];
      const auto& uplinks = topo.switch_at(tor).uplinks;
      const std::size_t first = 2 * rng.uniform_index(uplinks.size() / 2);
      corruption.mark(uplinks[first], rng.log_uniform(1e-6, 1e-2));
      corruption.mark(uplinks[first + 1], rng.log_uniform(1e-6, 1e-2));
    }
    // One aggregation octet in the same pod.
    const auto any_tor = tors[rng.uniform_index(tors.size())];
    const auto agg =
        topo.link_at(topo.switch_at(any_tor).uplinks[0]).upper;
    const auto& agg_uplinks = topo.switch_at(agg).uplinks;
    for (std::size_t i = 0; i < 8 && i < agg_uplinks.size(); ++i) {
      corruption.mark(agg_uplinks[i], rng.log_uniform(1e-6, 1e-3));
    }
  }
  return corruption;
}

struct AblationConfig {
  const char* name;
  bool segmentation;
  bool reject_cache;
  bool prefilter;
};

constexpr AblationConfig kConfigs[] = {
    {"full (segmentation + cache)", true, true, true},
    {"no segmentation", false, true, true},
    {"no reject cache", true, false, true},
    {"no singleton prefilter", true, true, false},
};

struct AblationOutcome {
  core::OptimizerResult result;
  std::size_t corrupting = 0;
  double elapsed_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Figure 20 / Section 8",
                      "Topology segmentation: independent optimization of "
                      "corrupting-link groups");

  // (i) The worked example: two pods of a small Clos, corruption in both.
  {
    topology::ClosSpec spec;
    spec.pods = 2;
    spec.tors_per_pod = 2;
    spec.aggs_per_pod = 2;
    spec.spine_group_size = 2;
    auto topo = topology::build_clos(spec);
    core::CapacityConstraint constraint(0.75);
    core::PathCounter counter(topo);
    // Corrupting: both uplinks of an agg in pod 0, both of one in pod 1.
    std::vector<common::LinkId> corrupting;
    for (int pod = 0; pod < 2; ++pod) {
      const auto tor = topo.tors()[static_cast<std::size_t>(2 * pod)];
      const auto agg = topo.link_at(topo.switch_at(tor).uplinks[0]).upper;
      for (common::LinkId link : topo.switch_at(agg).uplinks) {
        corrupting.push_back(link);
      }
    }
    core::LinkMask off(topo.link_count());
    for (common::LinkId link : corrupting) off.set(link.index());
    const auto violated =
        counter.violated_tors(counter.up_paths(&off), constraint);
    core::Segmenter segmenter;
    segmenter.split(counter, corrupting, violated);
    std::printf("worked example: %zu corrupting links across 2 pods -> %zu "
                "independent segments of 2 links each\n",
                corrupting.size(), segmenter.size());
    for (std::size_t s = 0; s < segmenter.size(); ++s) {
      const core::SegmentView segment = segmenter.segment(s);
      std::printf("  segment %zu: %zu links, %zu endangered ToR(s)\n", s + 1,
                  segment.links.size(), segment.tors.size());
    }
  }

  // (ii) Ablation on the large DCN: one job per configuration, every
  // job regenerating the identical corruption from the same derived
  // seed so the four rows differ only in optimizer switches.
  const int pods = args.quick ? 3 : 6;
  std::printf("\nlarge-DCN ablation (clustered corruption in %d pods, "
              "capacity 87.5%%):\n", pods);
  std::printf("%-34s %12s %12s %12s\n", "configuration", "subsets",
              "cache skips", "time (ms)");
  bench::ScenarioRunner runner(args.threads);
  const std::vector<AblationOutcome> outcomes = runner.map(
      std::size(kConfigs), [&](std::size_t i) {
        const AblationConfig& config = kConfigs[i];
        auto topo = topology::build_large_dcn();
        common::Rng rng(bench::derive_seed(55, 0));
        const core::CorruptionSet corruption =
            clustered_corruption(topo, pods, rng);
        core::CapacityConstraint constraint(0.875);
        core::OptimizerConfig opt;
        opt.use_segmentation = config.segmentation;
        opt.use_reject_cache = config.reject_cache;
        opt.prefilter_singletons = config.prefilter;
        core::PathCounter paths(topo);
        core::Optimizer optimizer(topo, paths, constraint,
                                  core::PenaltyFunction::linear(), opt);
        AblationOutcome outcome;
        outcome.corrupting = corruption.size();
        const auto start = std::chrono::steady_clock::now();
        outcome.result = optimizer.run(corruption);
        outcome.elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        return outcome;
      });

  std::vector<bench::StudyScenario> rows;
  for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
    const AblationConfig& config = kConfigs[i];
    const AblationOutcome& outcome = outcomes[i];
    const core::OptimizerResult& result = outcome.result;
    std::printf("%-34s %12zu %12zu %12.2f   (disabled %zu/%zu, exact=%s)\n",
                config.name, result.subsets_evaluated, result.cache_skips,
                outcome.elapsed_ms, result.disabled.size(),
                outcome.corrupting, result.exact ? "yes" : "no");
    std::printf("csv,fig20,%s,%zu,%zu,%.3f\n", config.name,
                result.subsets_evaluated, result.cache_skips,
                outcome.elapsed_ms);
    bench::StudyScenario row;
    row.name = config.name;
    row.metrics = {
        {"subsets_evaluated", static_cast<double>(result.subsets_evaluated)},
        {"cache_skips", static_cast<double>(result.cache_skips)},
        {"wall_ms", outcome.elapsed_ms},
        {"disabled", static_cast<double>(result.disabled.size())},
        {"corrupting", static_cast<double>(outcome.corrupting)},
        {"exact", result.exact ? 1.0 : 0.0},
    };
    rows.push_back(std::move(row));
  }
  bench::write_study_metrics_json(args.json_path("fig20"), "fig20",
                                  "bench_fig20_segmentation", args.threads,
                                  rows);
  return 0;
}
