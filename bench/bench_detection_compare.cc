// Detection backend comparison: threshold vs 007-style voting vs
// count-min sketch, across three fault mixes on the medium DCN.
//
// For each mix every backend replays the identical fault trace with the
// identical simulation seed, so the rows isolate what the backend costs:
// detection-latency distribution, false-positive / false-negative rates
// against ground truth, and the end-to-end integrated-penalty delta
// versus the SNMP threshold detector. Emits
// BENCH_detection_compare.json (byte-identical for any --threads).
#include <cstdio>
#include <ostream>

#include "bench_util.h"
#include "detection_compare.h"

using namespace corropt;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const common::SimDuration duration = args.duration_or(60 * common::kDay);

  bench::print_header(
      "Detection backend comparison (DESIGN.md §13)",
      "threshold vs 007-voting vs sketch, 3 fault mixes, medium DCN");
  std::printf("duration=%lld days, threads=%zu\n\n",
              static_cast<long long>(duration / common::kDay), args.threads);

  std::vector<bench::ScenarioJob> jobs =
      bench::make_detection_compare_jobs(duration);
  bench::set_collect_obs(jobs, args.obs);
  bench::ScenarioRunner runner(args.threads);
  // Within a mix the three backends share trace + sim seed but diverge
  // at the first poll cycle, so each mix's rows fork from a step-0
  // checkpoint of the mix's threshold base (DESIGN.md §14). Results are
  // byte-identical to fresh end-to-end runs, for any --threads.
  std::vector<bench::ScenarioResult> results;
  for (std::size_t group = 0; group < jobs.size(); group += 3) {
    const std::vector<bench::ScenarioJob> mix_jobs(
        jobs.begin() + group, jobs.begin() + group + 3);
    std::vector<bench::ScenarioResult> mix_results =
        runner.run_branched(mix_jobs, bench::BranchedSweep{});
    for (auto& result : mix_results) results.push_back(std::move(result));
  }

  const std::vector<bench::DetectionCompareSummary> rows =
      bench::summarize_detection_compare(results);
  std::printf("%-32s %10s %8s %8s %8s %10s %10s %10s %12s\n", "scenario",
              "detected", "fp_rate", "fn_rate", "p50_s", "p90_s", "p99_s",
              "penalty", "d_vs_thresh");
  for (const bench::DetectionCompareSummary& row : rows) {
    std::printf("%-32s %10zu %8.4f %8.4f %8.0f %10.0f %10.0f %10.3e %+11.2f%%\n",
                row.name.c_str(), row.polled_detections, row.fp_rate,
                row.fn_rate, row.latency_p50_s, row.latency_p90_s,
                row.latency_p99_s, row.integrated_penalty,
                100.0 * row.penalty_delta_vs_threshold);
    std::printf("csv,%s,%s,%zu,%zu,%zu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                row.backend.c_str(), row.mix.c_str(), row.polled_detections,
                row.false_positives, row.missed, row.fp_rate, row.fn_rate,
                row.latency_p50_s, row.latency_p90_s, row.latency_p99_s,
                row.penalty_delta_vs_threshold);
  }

  bench::write_output(args.json_path("detection_compare"), "scenarios",
                      [&](std::ostream& out) {
                        out << bench::detection_compare_json(
                            results, "bench_detection_compare");
                        return results.size();
                      });
  bench::write_obs_outputs(args, "detection_compare",
                           "bench_detection_compare", results);
  return 0;
}
