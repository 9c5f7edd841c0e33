// Shared plumbing for the experiment harnesses in bench/.
//
// Every bench regenerates one exhibit (table or figure) of the paper and
// prints it as aligned text plus, where a downstream plotting script is
// expected, CSV rows prefixed with "csv," for easy grepping.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "scenario_runner.h"
#include "sim/mitigation_sim.h"
#include "topology/fat_tree.h"
#include "trace/trace.h"

namespace corropt::bench {

inline void print_header(const std::string& exhibit,
                         const std::string& caption) {
  std::printf("==================================================\n");
  std::printf("%s\n%s\n", exhibit.c_str(), caption.c_str());
  std::printf("==================================================\n");
}

inline std::vector<trace::TraceEvent> make_trace(
    const topology::Topology& topo, double faults_per_link_per_day,
    common::SimDuration duration, std::uint64_t seed) {
  common::Rng rng(seed);
  trace::TraceParams params;
  params.faults_per_link_per_day = faults_per_link_per_day;
  params.duration = duration;
  return trace::CorruptionTraceGenerator(topo, params, rng).generate();
}

struct ScenarioOutcome {
  sim::SimulationMetrics metrics;
  std::size_t link_count = 0;
};

// The paper's two evaluation topologies (Section 7.1).
enum class Dcn { kMedium, kLarge };

inline topology::Topology build_dcn(Dcn dcn) {
  return dcn == Dcn::kMedium ? topology::build_medium_dcn()
                             : topology::build_large_dcn();
}

inline const char* dcn_name(Dcn dcn) {
  return dcn == Dcn::kMedium ? "medium (~16K links)" : "large (~34K links)";
}

// Builds the topology fresh (simulations mutate link state), replays the
// identical trace (same seed), and runs one scenario.
inline ScenarioOutcome run_scenario(Dcn dcn, core::CheckerMode mode,
                                    double capacity_fraction,
                                    double faults_per_link_per_day,
                                    common::SimDuration duration,
                                    std::uint64_t trace_seed,
                                    std::uint64_t sim_seed,
                                    double first_attempt_success = 0.8) {
  topology::Topology topo = build_dcn(dcn);
  const auto events =
      make_trace(topo, faults_per_link_per_day, duration, trace_seed);
  sim::ScenarioConfig config;
  config.mode = mode;
  config.capacity_fraction = capacity_fraction;
  config.duration = duration;
  config.seed = sim_seed;
  config.outcome.first_attempt_success = first_attempt_success;
  sim::MitigationSimulation sim(topo, config);
  ScenarioOutcome outcome;
  outcome.metrics = sim.run(events);
  outcome.link_count = topo.link_count();
  return outcome;
}

// Default synthetic fault density (see DESIGN.md): dense enough that
// multi-day repair times make 50-75% capacity constraints bind.
inline constexpr double kFaultsPerLinkPerDay = 1.5e-4;

inline const char* mode_name(core::CheckerMode mode) {
  switch (mode) {
    case core::CheckerMode::kSwitchLocal:
      return "switch-local";
    case core::CheckerMode::kFastCheckerOnly:
      return "fast-checker";
    case core::CheckerMode::kCorrOpt:
      return "corropt";
  }
  return "?";
}

// Builds a ScenarioJob equivalent to run_scenario() with the same
// parameters: identical topology, trace, and simulation seeds, so a bench
// converted to the ScenarioRunner reproduces its sequential numbers
// exactly.
inline ScenarioJob make_dcn_job(std::string name, Dcn dcn,
                                core::CheckerMode mode,
                                double capacity_fraction,
                                double faults_per_link_per_day,
                                common::SimDuration duration,
                                std::uint64_t trace_seed,
                                std::uint64_t sim_seed,
                                double first_attempt_success = 0.8) {
  ScenarioJob job;
  job.name = std::move(name);
  job.tags = {{"dcn", dcn == Dcn::kMedium ? "medium" : "large"},
              {"mode", mode_name(mode)},
              {"constraint", std::to_string(capacity_fraction)}};
  job.topology = [dcn] { return build_dcn(dcn); };
  job.trace.faults_per_link_per_day = faults_per_link_per_day;
  job.trace.duration = duration;
  job.trace_seed = trace_seed;
  job.config.mode = mode;
  job.config.capacity_fraction = capacity_fraction;
  job.config.duration = duration;
  job.config.seed = sim_seed;
  job.config.outcome.first_attempt_success = first_attempt_success;
  return job;
}

// Flags shared by the converted sweep benches. BENCH_THREADS in the
// environment seeds the default thread count; --threads overrides it.
// --quick caps simulated durations (CI smoke runs), --json-dir moves
// the BENCH_<exhibit>.json output out of the working directory, and
// --obs attaches a per-job obs sink and additionally writes
// OBS_<exhibit>.jsonl (decision journal) and OBS_<exhibit>_metrics.json
// (corropt-obs-metrics/1).
inline constexpr std::size_t kMaxBenchThreads = 256;

struct BenchArgs {
  std::size_t threads = configured_thread_count();
  bool quick = false;
  bool obs = false;
  std::string json_dir = ".";

  // Full sweep duration, or the --quick cap.
  [[nodiscard]] common::SimDuration duration_or(
      common::SimDuration full) const {
    const common::SimDuration cap = 10 * common::kDay;
    return quick && full > cap ? cap : full;
  }

  [[nodiscard]] std::string json_path(const std::string& exhibit) const {
    return json_dir + "/BENCH_" + exhibit + ".json";
  }
  [[nodiscard]] std::string obs_jsonl_path(const std::string& exhibit) const {
    return json_dir + "/OBS_" + exhibit + ".jsonl";
  }
  [[nodiscard]] std::string obs_metrics_path(
      const std::string& exhibit) const {
    return json_dir + "/OBS_" + exhibit + "_metrics.json";
  }
};

// Writes the OBS_<exhibit> journal + metrics files when --obs was given;
// call after the sweep with the same results passed to
// write_metrics_json. Jobs must have been built with collect_obs set
// (see set_collect_obs).
inline void write_obs_outputs(const BenchArgs& args,
                              const std::string& exhibit,
                              const std::string& generator,
                              const std::vector<ScenarioResult>& results) {
  if (!args.obs) return;
  write_obs_jsonl(args.obs_jsonl_path(exhibit), results);
  write_obs_metrics_json(args.obs_metrics_path(exhibit), exhibit, generator,
                         args.threads, results);
}

inline void set_collect_obs(std::vector<ScenarioJob>& jobs, bool collect) {
  for (ScenarioJob& job : jobs) job.collect_obs = collect;
}

// Parses a --threads=N value into `threads`: a whole decimal number in
// 1..kMaxBenchThreads, with no sign and no trailing bytes. Returns false
// (leaving `threads` alone) on anything else.
inline bool parse_thread_count(const std::string& value,
                               std::size_t& threads) {
  const char* last = value.data() + value.size();
  std::size_t parsed = 0;
  const auto [end, error] = std::from_chars(value.data(), last, parsed);
  if (error != std::errc() || end != last || parsed == 0 ||
      parsed > kMaxBenchThreads) {
    return false;
  }
  threads = parsed;
  return true;
}

// Prints the shared flags' usage and exits 2 (a bad command line).
[[noreturn]] inline void bench_usage_exit(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--obs] [--threads=N] "
               "[--json-dir=DIR]\n"
               "  --quick       cap simulated duration at 10 days\n"
               "  --obs         collect per-job metrics + decision "
               "journal (OBS_<exhibit>*.{jsonl,json})\n"
               "  --threads=N   worker threads, 1..%zu (default: "
               "BENCH_THREADS env or hardware concurrency)\n"
               "  --json-dir=D  directory for BENCH_<exhibit>.json "
               "(default: .)\n",
               program, kMaxBenchThreads);
  std::exit(2);
}

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--obs") {
      args.obs = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parse_thread_count(arg.substr(10), args.threads)) {
        bench_usage_exit(argv[0]);
      }
    } else if (arg.rfind("--json-dir=", 0) == 0) {
      args.json_dir = arg.substr(11);
    } else {
      bench_usage_exit(argv[0]);
    }
  }
  return args;
}

}  // namespace corropt::bench
