// Runtime control-loop throughput (DESIGN.md §12).
//
// Replays synthesized burst/churn telemetry streams through a control
// loop on the large DCN (the optimizer keeps its segment and closure
// caches across events, as it always does) and reports sustained
// decisions/sec plus p50/p99 per-event latency. An untimed second replay
// of the same stream runs with verify_incremental, which re-solves every
// optimizer run with a fresh optimizer and throws on any divergence,
// search counters included. The bench folds every decision and every
// journal record (nothing masked) of both replays into digests and
// reports their equality, which the CI bench smoke asserts.
//
//   bench_runtime_controller [--quick] [--threads=N] [--json-dir=DIR]
//
// --threads sets the optimizer's solver_threads in both replays (the
// stream replay itself is serial so latency numbers stay honest).
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "service/churn.h"
#include "service/control_loop.h"
#include "stats/cdf.h"
#include "study_util.h"

namespace {

using namespace corropt;

struct ChurnScenario {
  const char* name;
  double fault_multiplier;
  double p_burst;
  int burst_max;
};

constexpr ChurnScenario kScenarios[] = {
    {"churn_base", 1.0, 0.05, 3},
    {"churn_burst", 4.0, 0.25, 6},
    {"churn_storm", 12.0, 0.40, 8},
};

struct LoopOutcome {
  service::ControlLoop::Stats stats;
  std::vector<double> latencies;
  std::uint64_t decisions_digest = 0;
  std::uint64_t journal_digest = 0;
  std::size_t segment_reuses = 0;
  std::size_t cold_fallbacks = 0;
};

LoopOutcome replay(const std::vector<service::TelemetryEvent>& stream,
                   bool verify, std::size_t solver_threads) {
  topology::Topology topo = bench::build_dcn(bench::Dcn::kLarge);
  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  obs::Sink sink{&metrics, &journal, nullptr, 0};

  service::ControlLoopConfig config;
  config.controller.mode = core::CheckerMode::kCorrOpt;
  config.controller.capacity_fraction = 0.875;
  config.controller.optimizer.solver_threads = solver_threads;
  config.controller.verify_incremental = verify;
  service::ControlLoop loop(topo, config, &sink);

  for (const service::TelemetryEvent& event : stream) loop.process(event);

  LoopOutcome outcome;
  outcome.stats = loop.stats();
  outcome.latencies = loop.decision_latencies();
  outcome.decisions_digest = loop.decisions_digest();
  // Every field of every record (kOptimizerRun.detail1,
  // subsets_evaluated, included): the cached optimizer reports the
  // search effort of a cold solve, so nothing is exempt.
  outcome.journal_digest =
      obs::digest(journal.snapshot(), obs::MetricsSnapshot{});
  outcome.segment_reuses =
      loop.controller().optimizer().incremental_stats().segment_reuses;
  outcome.cold_fallbacks =
      loop.controller().optimizer().incremental_stats().cold_fallbacks;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Runtime control loop",
                      "Sustained decisions/sec, large DCN");

  const common::SimDuration duration =
      args.duration_or(30 * common::kDay);
  const topology::Topology stream_topo = bench::build_dcn(bench::Dcn::kLarge);

  std::vector<bench::StudyScenario> rows;
  std::printf("%-12s %-12s %8s %12s %10s %10s %10s\n", "scenario", "mode",
              "events", "dec/sec", "mean_ms", "p50_ms", "p99_ms");
  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    const ChurnScenario& scenario = kScenarios[i];
    service::ChurnParams params;
    params.trace.faults_per_link_per_day =
        bench::kFaultsPerLinkPerDay * scenario.fault_multiplier;
    params.trace.duration = duration;
    params.trace.p_burst = scenario.p_burst;
    params.trace.burst_max = scenario.burst_max;
    params.seed = bench::derive_seed(4242, i);
    const std::vector<service::TelemetryEvent> stream =
        service::make_churn_stream(stream_topo, params);

    const LoopOutcome loop = replay(stream, false, args.threads);
    // Throws std::logic_error if any optimizer run diverges from a
    // fresh optimizer's.
    const LoopOutcome verified = replay(stream, true, args.threads);

    const double dps =
        loop.stats.busy_seconds > 0.0
            ? static_cast<double>(loop.stats.events) / loop.stats.busy_seconds
            : 0.0;
    const double mean_ms =
        loop.stats.events > 0 ? loop.stats.busy_seconds /
                                    static_cast<double>(loop.stats.events) *
                                    1e3
                              : 0.0;
    // Nearest-rank latency percentiles; 0 without decisions.
    double p50 = 0.0, p99 = 0.0;
    if (!loop.latencies.empty()) {
      stats::EmpiricalCdf latencies(loop.latencies);
      p50 = latencies.quantile(0.50) * 1e3;
      p99 = latencies.quantile(0.99) * 1e3;
    }
    std::printf("%-12s %-12s %8zu %12.1f %10.4f %10.4f %10.4f\n",
                scenario.name, "loop", loop.stats.events, dps, mean_ms, p50,
                p99);
    std::printf("csv,%s,%s,%zu,%.3f,%.6f,%.6f,%.6f\n", scenario.name, "loop",
                loop.stats.events, dps, mean_ms, p50, p99);
    const double days =
        static_cast<double>(duration) / static_cast<double>(common::kDay);
    bench::StudyScenario row;
    row.name = std::string(scenario.name) + "/loop";
    row.metrics = {
        {"events", static_cast<double>(loop.stats.events)},
        {"events_per_day",
         days > 0.0 ? static_cast<double>(loop.stats.events) / days : 0.0},
        {"decisions_per_sec", dps},
        {"mean_ms", mean_ms},
        {"p50_ms", p50},
        {"p99_ms", p99},
    };
    rows.push_back(std::move(row));

    const bool digest_equal =
        loop.decisions_digest == verified.decisions_digest;
    const bool journal_equal = loop.journal_digest == verified.journal_digest;
    std::printf(
        "%-12s summary: verified replay digest %s, journal %s, "
        "segment reuses %zu, cold fallbacks %zu\n",
        scenario.name, digest_equal ? "EQUAL" : "DIVERGED",
        journal_equal ? "EQUAL" : "DIVERGED", loop.segment_reuses,
        loop.cold_fallbacks);
    bench::StudyScenario summary;
    summary.name = std::string(scenario.name) + "/summary";
    summary.metrics = {
        {"digest_equal", digest_equal ? 1.0 : 0.0},
        {"journal_digest_equal", journal_equal ? 1.0 : 0.0},
        {"segment_reuses", static_cast<double>(loop.segment_reuses)},
        {"cold_fallbacks", static_cast<double>(loop.cold_fallbacks)},
    };
    rows.push_back(std::move(summary));
  }

  bench::write_study_metrics_json(args.json_path("runtime_controller"),
                                  "runtime_controller",
                                  "bench_runtime_controller", args.threads,
                                  rows);
  return 0;
}
