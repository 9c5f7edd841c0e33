// Shared plumbing for the experiment harnesses in bench/.
//
// Every bench regenerates one exhibit (table or figure) of the paper and
// prints it as aligned text plus, where a downstream plotting script is
// expected, CSV rows prefixed with "csv," for easy grepping.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/time.h"
#include "scenario_runner.h"
#include "sim/scenario.h"
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
  trace::TraceParams params;
  params.faults_per_link_per_day = faults_per_link_per_day;
  params.duration = duration;
  return sim::make_trace(topo, params, seed);
}

// The paper's two evaluation topologies (Section 7.1).
enum class Dcn { kMedium, kLarge };

inline topology::Topology build_dcn(Dcn dcn) {
  return dcn == Dcn::kMedium ? topology::build_medium_dcn()
                             : topology::build_large_dcn();
}

inline const char* dcn_name(Dcn dcn) {
  return dcn == Dcn::kMedium ? "medium (~16K links)" : "large (~34K links)";
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

// Builds the ScenarioJob of one paper-topology scenario: the DCN built
// fresh per run, a trace of the given density from `trace_seed`, and the
// checker mode and constraint under `sim_seed`.
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

// Flags shared by the converted sweep benches. --threads sets the worker
// count (default: hardware concurrency), --quick caps simulated
// durations (CI smoke runs), --json-dir moves the BENCH_<exhibit>.json
// output out of the working directory, and --obs attaches a per-job obs
// sink and additionally writes OBS_<exhibit>.jsonl (decision journal)
// and OBS_<exhibit>_metrics.json (corropt-obs-metrics/1).
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
// call after the sweep with its runs in output order — bench::
// ScenarioResults or fleet::DcResults. Jobs must have been built with
// collect_obs set (see set_collect_obs).
template <typename Run>
void write_obs_outputs(const BenchArgs& args, const std::string& exhibit,
                       const std::string& generator,
                       const std::vector<Run>& results) {
  if (!args.obs) return;
  std::vector<const sim::ScenarioRun*> runs;
  for (const sim::ScenarioRun& run : results) runs.push_back(&run);
  write_obs_jsonl(args.obs_jsonl_path(exhibit), runs);
  write_obs_metrics_json(args.obs_metrics_path(exhibit), exhibit, generator,
                         args.threads, runs);
}

inline void set_collect_obs(std::vector<ScenarioJob>& jobs, bool collect) {
  for (ScenarioJob& job : jobs) job.collect_obs = collect;
}

// A bench-specific --<name>=N flag, held to the same rule as --threads:
// a whole decimal number in min..max.
struct NumberFlag {
  std::string_view name;  // Including the dashes: "--dcs".
  std::string_view help;  // One usage line.
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  // Set when the flag is given; left alone otherwise.
  std::optional<std::uint64_t>* value = nullptr;
};

// Parses `text` as a whole decimal number in min..max: digits only, no
// sign, no surrounding bytes, no overflow. Returns nullopt otherwise.
inline std::optional<std::uint64_t> parse_whole_number(std::string_view text,
                                                       std::uint64_t min,
                                                       std::uint64_t max) {
  const char* last = text.data() + text.size();
  std::uint64_t parsed = 0;
  const auto [end, error] = std::from_chars(text.data(), last, parsed);
  if (error != std::errc() || end != last || parsed < min || parsed > max) {
    return std::nullopt;
  }
  return parsed;
}

// Prints the shared flags' usage (plus `extra`'s) and exits 2: a bad
// command line.
[[noreturn]] inline void bench_usage_exit(
    const char* program, std::span<const NumberFlag> extra = {}) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--obs] [--threads=N] "
               "[--json-dir=DIR]",
               program);
  for (const NumberFlag& flag : extra) {
    std::fprintf(stderr, " [%.*s=N]", static_cast<int>(flag.name.size()),
                 flag.name.data());
  }
  std::fprintf(stderr,
               "\n"
               "  --quick       cap simulated duration at 10 days\n"
               "  --obs         collect per-job metrics + decision "
               "journal (OBS_<exhibit>*.{jsonl,json})\n"
               "  --threads=N   worker threads, 1..%zu (default: "
               "hardware concurrency)\n"
               "  --json-dir=D  directory for BENCH_<exhibit>.json "
               "(default: .)\n",
               kMaxBenchThreads);
  for (const NumberFlag& flag : extra) {
    const std::string usage = std::string(flag.name) + "=N";
    std::fprintf(stderr, "  %-13s %.*s\n", usage.c_str(),
                 static_cast<int>(flag.help.size()), flag.help.data());
  }
  std::exit(2);
}

// Parses the shared flags and `extra`; anything else, or a malformed
// value, is bench_usage_exit.
inline BenchArgs parse_bench_args(int argc, char** argv,
                                  std::span<const NumberFlag> extra = {}) {
  BenchArgs args;
  const auto number = [&](std::string_view value, std::uint64_t min,
                          std::uint64_t max) {
    const std::optional<std::uint64_t> parsed =
        parse_whole_number(value, min, max);
    if (!parsed) bench_usage_exit(argv[0], extra);
    return *parsed;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // The value of `--name=VALUE`, when `arg` is that flag.
    const auto flag_value = [&arg](std::string_view name)
        -> std::optional<std::string_view> {
      if (!arg.starts_with(name) || arg.substr(name.size(), 1) != "=") {
        return std::nullopt;
      }
      return arg.substr(name.size() + 1);
    };
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--obs") {
      args.obs = true;
    } else if (const auto value = flag_value("--threads")) {
      args.threads = number(*value, 1, kMaxBenchThreads);
    } else if (const auto value = flag_value("--json-dir")) {
      args.json_dir = std::string(*value);
    } else {
      const auto flag =
          std::find_if(extra.begin(), extra.end(), [&](const NumberFlag& f) {
            return flag_value(f.name).has_value();
          });
      if (flag == extra.end()) bench_usage_exit(argv[0], extra);
      *flag->value = number(*flag_value(flag->name), flag->min, flag->max);
    }
  }
  return args;
}

}  // namespace corropt::bench
