// Counterfactual what-if sweeps over a shared prefix (DESIGN.md §14).
//
// The operational question behind this exhibit: "the last weeks of this
// DC's history are fixed — what do the NEXT days look like under N
// different fault futures?" Fresh execution answers it by re-simulating
// the shared history N times; the BranchRunner answers it by running the
// history once, freezing a checkpoint at the divergence point, and
// forking the N futures from it. Both answers are byte-identical (the
// branch equivalence contract, asserted here per branch against fresh
// runs and across 1- and 4-thread pools); the speedup is the point.
//
// With the branch at fraction f of the horizon and N branches, fresh
// work is N runs while branched work is f + N(1-f) runs: f=0.85, N=8
// gives an expected ~3.9x. The measured number lands in
// BENCH_whatif.json; BENCH_whatif_branched.json and
// BENCH_whatif_fresh.json are wall-clock-free corropt-bench-metrics/1
// documents whose bytes must compare equal (cmp) to each other and
// across --threads — the CI smoke contract.
//
// --replay-at=K additionally demonstrates journal time travel: freeze
// the base scenario at event boundary K and print the decision journal
// exactly as it stood there — the journal a branch restored from that
// checkpoint starts with.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/branch_runner.h"

using namespace corropt;

namespace {

std::uint64_t digest_obs(const obs::EventJournal& journal,
                         const obs::MetricsRegistry& registry) {
  std::ostringstream out;
  for (const obs::Event& event : journal.snapshot()) {
    obs::write_event_jsonl(out, event);
    out << '\n';
  }
  common::JsonWriter json(out);
  json.begin_object();
  registry.snapshot().write_json(json, /*include_timers=*/false);
  json.end_object();
  const std::string bytes = out.str();
  return common::fnv1a(common::kFnvBasis, bytes.data(), bytes.size());
}

struct SinkSet {
  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  obs::Sink sink{&registry, &journal, nullptr, 0};
};

struct BranchOutcome {
  sim::SimulationMetrics metrics;
  std::uint64_t metrics_digest = 0;
  std::uint64_t obs_digest = 0;
};

// A fault-storm density, 100x the default sweep: what-if planning is
// most valuable exactly when the fabric is melting, and the heavy
// optimizer load keeps per-branch constants (topology build,
// checkpoint decode) far below the simulated work, so the measured
// speedup reflects prefix reuse.
constexpr double kWhatifFaultDensity = 100 * bench::kFaultsPerLinkPerDay;

sim::ScenarioConfig whatif_config(common::SimDuration duration,
                                  obs::Sink* sink) {
  sim::ScenarioConfig config;
  config.mode = core::CheckerMode::kCorrOpt;
  config.capacity_fraction = 0.75;
  config.duration = duration;
  config.seed = bench::derive_seed(901, 0);
  config.outcome.first_attempt_success = 0.8;
  config.sink = sink;
  return config;
}

// Branch i's future: the shared history verbatim, then every remaining
// onset shifted by i * 7 minutes — a deterministic grid of alternative
// fault futures that all satisfy the trace-sharing contract.
std::vector<trace::TraceEvent> future_trace(
    const std::vector<trace::TraceEvent>& events, std::size_t cursor,
    std::size_t branch) {
  std::vector<trace::TraceEvent> out = events;
  for (std::size_t i = cursor; i < out.size(); ++i) {
    out[i].time += static_cast<common::SimTime>(branch) * 7 * common::kMinute;
  }
  return out;
}

// Runs all branches from the checkpoint across `pool`; each branch gets
// its own sink, so journal/registry digests come out per branch. Only
// the simulation fan-out is timed into *wall_s — digesting a branch's
// journal serializes ~10^5 JSONL records and would dilute the speedup
// on both sides of the comparison.
std::vector<BranchOutcome> run_branched(
    const sim::BranchRunner& runner, const sim::Checkpoint& base,
    const std::vector<std::vector<trace::TraceEvent>>& futures,
    common::SimDuration duration, common::ThreadPool& pool,
    double* wall_s) {
  std::vector<SinkSet> sinks(futures.size());
  std::vector<sim::BranchSpec> specs;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    sim::BranchSpec spec;
    spec.name = "future=" + std::to_string(i);
    spec.config = whatif_config(duration, &sinks[i].sink);
    spec.events = &futures[i];
    specs.push_back(std::move(spec));
  }
  const auto start = std::chrono::steady_clock::now();
  const std::vector<sim::BranchResult> results =
      runner.run(base, specs, pool);
  *wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
  std::vector<BranchOutcome> outcomes(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    outcomes[i].metrics = results[i].metrics;
    outcomes[i].metrics_digest = sim::digest(results[i].metrics);
    outcomes[i].obs_digest = digest_obs(sinks[i].journal, sinks[i].registry);
  }
  return outcomes;
}

std::vector<BranchOutcome> run_fresh(
    const sim::BranchRunner& runner,
    const std::vector<std::vector<trace::TraceEvent>>& futures,
    common::SimDuration duration, common::ThreadPool& pool,
    double* wall_s) {
  std::vector<SinkSet> sinks(futures.size());
  std::vector<BranchOutcome> outcomes(futures.size());
  const auto start = std::chrono::steady_clock::now();
  common::parallel_for_each(pool, futures.size(), [&](std::size_t i) {
    outcomes[i].metrics =
        runner.run_fresh(whatif_config(duration, &sinks[i].sink), futures[i]);
  });
  *wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    outcomes[i].metrics_digest = sim::digest(outcomes[i].metrics);
    outcomes[i].obs_digest = digest_obs(sinks[i].journal, sinks[i].registry);
  }
  return outcomes;
}

void write_deterministic_doc(const std::string& path,
                             const std::vector<BranchOutcome>& outcomes,
                             std::size_t link_count) {
  std::vector<bench::ScenarioResult> results;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    bench::ScenarioResult result;
    result.name = "future=" + std::to_string(i);
    result.tags = {{"branch", std::to_string(i)}};
    result.metrics = outcomes[i].metrics;
    result.link_count = link_count;
    result.wall_seconds = 0.0;  // Scrubbed: the document must cmp-equal.
    results.push_back(std::move(result));
  }
  // threads=0 keeps the envelope free of the pool size for the same
  // reason.
  bench::write_metrics_json(path, "whatif", "bench_whatif", 0, results);
}

double elapsed_s(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int replay_journal_at(std::uint64_t k, common::SimDuration duration) {
  const auto topo_factory = [] { return bench::build_dcn(bench::Dcn::kMedium); };
  sim::BranchRunner runner(topo_factory);
  topology::Topology topo = topo_factory();
  const auto events = bench::make_trace(topo, kWhatifFaultDensity,
                                        duration, bench::derive_seed(900, 0));
  SinkSet base_sinks;
  const sim::Checkpoint ckpt = runner.checkpoint_at_step(
      whatif_config(duration, &base_sinks.sink), events, k);
  if (ckpt.empty()) {
    std::fprintf(stderr, "run finished before event %llu\n",
                 static_cast<unsigned long long>(k));
    return 1;
  }
  // The prefix's own sink holds exactly the journal the checkpoint
  // carries: what a branch restored from it starts with.
  const auto journal = base_sinks.journal.snapshot();
  std::printf("journal at event boundary %llu (t=%.2f days): %zu records\n",
              static_cast<unsigned long long>(ckpt.steps),
              common::to_days(ckpt.time), journal.size());
  const std::size_t tail = journal.size() > 10 ? journal.size() - 10 : 0;
  for (std::size_t i = tail; i < journal.size(); ++i) {
    std::ostringstream line;
    obs::write_event_jsonl(line, journal[i]);
    std::printf("%s\n", line.str().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::uint64_t> replay_at;
  const bench::NumberFlag flags[] = {
      {.name = "--replay-at",
       .help = "print the journal as it stood at event boundary N",
       .value = &replay_at},
  };
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, flags);
  const common::SimDuration duration =
      args.quick ? 6 * common::kDay : 45 * common::kDay;
  if (replay_at) return replay_journal_at(*replay_at, duration);

  bench::print_header(
      "Counterfactual what-if sweep (DESIGN.md §14)",
      "8 fault futures forked from one 85%-horizon checkpoint, medium "
      "DCN — branched vs fresh wall clock, byte-identity asserted");

  constexpr std::size_t kBranches = 8;
  const double branch_fraction = 0.85;
  const common::SimTime branch_time =
      static_cast<common::SimTime>(branch_fraction * duration);

  const auto topo_factory = [] { return bench::build_dcn(bench::Dcn::kMedium); };
  sim::BranchRunner runner(topo_factory);
  topology::Topology trace_topo = topo_factory();
  const auto events = bench::make_trace(trace_topo, kWhatifFaultDensity,
                                        duration, bench::derive_seed(900, 0));

  // Shared prefix: run once, freeze at 85% of the horizon.
  const auto prefix_start = std::chrono::steady_clock::now();
  SinkSet base_sinks;
  const sim::Checkpoint base = runner.checkpoint_base(
      whatif_config(duration, &base_sinks.sink), events,
      [branch_time](const sim::MitigationSimulation& sim) {
        return sim.now() >= branch_time;
      });
  const double prefix_s = elapsed_s(prefix_start);
  if (base.empty()) {
    std::fprintf(stderr, "prefix covered the horizon; nothing to branch\n");
    return 1;
  }

  std::vector<std::vector<trace::TraceEvent>> futures;
  for (std::size_t i = 0; i < kBranches; ++i) {
    futures.push_back(future_trace(events, base.trace_cursor, i));
  }

  // Branched execution (timed on the requested pool), fresh references
  // (timed on an identical pool), and an identity re-run on the other
  // of {1, 4} threads (untimed).
  common::ThreadPool pool(args.threads);
  double branched_s = 0.0, fresh_s = 0.0, other_s = 0.0;
  const std::vector<BranchOutcome> branched =
      run_branched(runner, base, futures, duration, pool, &branched_s);
  const std::vector<BranchOutcome> fresh =
      run_fresh(runner, futures, duration, pool, &fresh_s);

  const std::size_t other_threads = args.threads == 1 ? 4 : 1;
  common::ThreadPool other_pool(other_threads);
  const std::vector<BranchOutcome> branched_other =
      run_branched(runner, base, futures, duration, other_pool, &other_s);

  // Identity: branched == fresh == branched-on-the-other-pool, per
  // branch, for metrics and journal/registry bytes.
  bool all_identical = true;
  for (std::size_t i = 0; i < kBranches; ++i) {
    const bool ok = branched[i].metrics_digest == fresh[i].metrics_digest &&
                    branched[i].obs_digest == fresh[i].obs_digest &&
                    branched[i].metrics_digest ==
                        branched_other[i].metrics_digest &&
                    branched[i].obs_digest == branched_other[i].obs_digest;
    if (!ok) {
      std::fprintf(stderr, "branch %zu diverged from its fresh run\n", i);
      all_identical = false;
    }
  }

  const double speedup = fresh_s / (prefix_s + branched_s);
  std::printf("%10s %16s %16s %12s %10s\n", "branch", "penalty", "faults",
              "tickets", "identical");
  for (std::size_t i = 0; i < kBranches; ++i) {
    std::printf("%10zu %16.6e %16zu %12zu %10s\n", i,
                branched[i].metrics.integrated_penalty,
                static_cast<std::size_t>(branched[i].metrics.faults_injected),
                static_cast<std::size_t>(branched[i].metrics.tickets_opened),
                branched[i].metrics_digest == fresh[i].metrics_digest &&
                        branched[i].obs_digest == fresh[i].obs_digest
                    ? "yes"
                    : "NO");
  }
  std::printf(
      "\nprefix %.2fs + branches %.2fs = %.2fs branched; fresh %.2fs; "
      "speedup %.2fx (expected ~%.1fx at f=%.2f, N=%zu)\n",
      prefix_s, branched_s, prefix_s + branched_s, fresh_s, speedup,
      kBranches / (branch_fraction + kBranches * (1.0 - branch_fraction)),
      branch_fraction, kBranches);

  // BENCH_whatif.json: the speedup exhibit.
  {
    std::ofstream out(args.json_path("whatif"));
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n",
                   args.json_path("whatif").c_str());
      return 1;
    }
    common::JsonWriter json(out);
    json.begin_object();
    json.member("schema", "corropt-whatif/1");
    json.member("exhibit", "whatif");
    json.member("generator", "bench_whatif");
    json.member("threads", args.threads);
    json.member("duration_days", common::to_days(duration));
    json.member("branch_fraction", branch_fraction);
    json.member("branches", kBranches);
    json.member("checkpoint_time_s", static_cast<double>(base.time));
    json.member("checkpoint_steps", base.steps);
    json.member("checkpoint_bytes", base.bytes.size());
    json.member("prefix_wall_s", prefix_s);
    json.member("branched_wall_s", branched_s);
    json.member("fresh_wall_s", fresh_s);
    json.member("speedup", speedup);
    json.member("all_identical", all_identical);
    json.key("branch_penalties").begin_array();
    for (const BranchOutcome& outcome : branched) {
      json.value(outcome.metrics.integrated_penalty);
    }
    json.end_array();
    json.end_object();
  }
  std::printf("wrote %s\n", args.json_path("whatif").c_str());

  // Deterministic companion documents for the CI cmp contract.
  write_deterministic_doc(args.json_path("whatif_branched"), branched,
                          trace_topo.link_count());
  write_deterministic_doc(args.json_path("whatif_fresh"), fresh,
                          trace_topo.link_count());

  if (!all_identical) return 1;
  std::printf(
      "\nevery branch is byte-identical to its fresh end-to-end run; the\n"
      "%.1fx comes purely from not re-simulating the shared %d%% prefix.\n",
      speedup, static_cast<int>(branch_fraction * 100));
  return 0;
}
