// Runtime control-loop throughput (DESIGN.md §12).
//
// Replays synthesized burst/churn telemetry streams against two
// identically configured control loops on the large DCN — one cold
// (every event pays full path recounts), one incremental (persistent
// optimizer / fast-checker state) — and reports sustained decisions/sec
// plus p50/p99 per-event latency for each. The two loops must be
// decision-equivalent: the bench folds every decision and every journal
// record (search-effort fields masked) into digests and reports their
// equality, which the CI bench smoke asserts.
//
//   bench_runtime_controller [--quick] [--threads=N] [--json-dir=DIR]
//
// --threads sets the optimizer's solver_threads in both loops (the
// stream replay itself is serial so latency numbers stay honest).
#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "service/churn.h"
#include "service/control_loop.h"
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

// FNV-1a over the journal's decision records. kOptimizerRun.detail1 is
// subsets_evaluated — search effort, legitimately different between the
// cold and incremental loops — so it is masked; everything else must
// match bit-for-bit.
std::uint64_t journal_digest(const obs::EventJournal& journal) {
  std::uint64_t digest = common::kFnvBasis;
  auto fold = [&digest](std::uint64_t value) {
    digest = common::fnv1a(digest, value);
  };
  for (const obs::Event& event : journal.snapshot()) {
    fold(event.seq);
    fold(static_cast<std::uint64_t>(event.time));
    fold(static_cast<std::uint64_t>(event.kind));
    fold(static_cast<std::uint64_t>(event.reason));
    fold(event.link.value());
    fold(event.sw.value());
    fold(event.ticket.value());
    fold(std::bit_cast<std::uint64_t>(event.value));
    fold(std::bit_cast<std::uint64_t>(event.value2));
    fold(event.detail0);
    fold(event.kind == obs::EventKind::kOptimizerRun ? 0 : event.detail1);
  }
  return digest;
}

LoopOutcome replay(const std::vector<service::TelemetryEvent>& stream,
                   bool incremental, std::size_t solver_threads) {
  topology::Topology topo = bench::build_dcn(bench::Dcn::kLarge);
  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  obs::Sink sink{&metrics, &journal, nullptr, 0};

  service::ControlLoopConfig config;
  config.controller.mode = core::CheckerMode::kCorrOpt;
  config.controller.capacity_fraction = 0.875;
  config.controller.optimizer.solver_threads = solver_threads;
  config.controller.incremental = incremental;
  service::ControlLoop loop(topo, config, &sink);

  for (const service::TelemetryEvent& event : stream) loop.process(event);

  LoopOutcome outcome;
  outcome.stats = loop.stats();
  outcome.latencies = loop.decision_latencies();
  outcome.decisions_digest = loop.decisions_digest();
  outcome.journal_digest = journal_digest(journal);
  outcome.segment_reuses =
      loop.controller().optimizer().incremental_stats().segment_reuses;
  outcome.cold_fallbacks =
      loop.controller().optimizer().incremental_stats().cold_fallbacks;
  return outcome;
}

double percentile_ms(std::vector<double> latencies, double p) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t index = std::min(
      latencies.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(latencies.size())));
  return latencies[index] * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "Runtime control loop",
      "Sustained decisions/sec, cold vs incremental, large DCN");

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

    const LoopOutcome cold = replay(stream, false, args.threads);
    const LoopOutcome warm = replay(stream, true, args.threads);

    for (const auto& [mode, outcome] :
         {std::pair<const char*, const LoopOutcome&>{"cold", cold},
          {"incremental", warm}}) {
      const double dps =
          outcome.stats.busy_seconds > 0.0
              ? static_cast<double>(outcome.stats.events) /
                    outcome.stats.busy_seconds
              : 0.0;
      const double mean_ms =
          outcome.stats.events > 0
              ? outcome.stats.busy_seconds /
                    static_cast<double>(outcome.stats.events) * 1e3
              : 0.0;
      const double p50 = percentile_ms(outcome.latencies, 0.50);
      const double p99 = percentile_ms(outcome.latencies, 0.99);
      std::printf("%-12s %-12s %8zu %12.1f %10.4f %10.4f %10.4f\n",
                  scenario.name, mode, outcome.stats.events, dps, mean_ms,
                  p50, p99);
      std::printf("csv,%s,%s,%zu,%.3f,%.6f,%.6f,%.6f\n", scenario.name, mode,
                  outcome.stats.events, dps, mean_ms, p50, p99);
      bench::StudyScenario row;
      row.name = std::string(scenario.name) + "/" + mode;
      const double days =
          static_cast<double>(duration) / static_cast<double>(common::kDay);
      row.metrics = {
          {"events", static_cast<double>(outcome.stats.events)},
          {"events_per_day",
           days > 0.0 ? static_cast<double>(outcome.stats.events) / days
                      : 0.0},
          {"decisions_per_sec", dps},
          {"mean_ms", mean_ms},
          {"p50_ms", p50},
          {"p99_ms", p99},
      };
      rows.push_back(std::move(row));
    }

    const bool digest_equal = cold.decisions_digest == warm.decisions_digest;
    const bool journal_equal = cold.journal_digest == warm.journal_digest;
    const double speedup =
        cold.stats.busy_seconds > 0.0 && warm.stats.busy_seconds > 0.0
            ? cold.stats.busy_seconds / warm.stats.busy_seconds
            : 0.0;
    std::printf(
        "%-12s summary: speedup %.2fx, digest %s, journal %s, "
        "segment reuses %zu, cold fallbacks %zu\n",
        scenario.name, speedup, digest_equal ? "EQUAL" : "DIVERGED",
        journal_equal ? "EQUAL" : "DIVERGED", warm.segment_reuses,
        warm.cold_fallbacks);
    bench::StudyScenario summary;
    summary.name = std::string(scenario.name) + "/summary";
    summary.metrics = {
        {"speedup", speedup},
        {"digest_equal", digest_equal ? 1.0 : 0.0},
        {"journal_digest_equal", journal_equal ? 1.0 : 0.0},
        {"segment_reuses", static_cast<double>(warm.segment_reuses)},
        {"cold_fallbacks", static_cast<double>(warm.cold_fallbacks)},
    };
    rows.push_back(std::move(summary));
  }

  bench::write_study_metrics_json(args.json_path("runtime_controller"),
                                  "runtime_controller",
                                  "bench_runtime_controller", args.threads,
                                  rows);
  return 0;
}
