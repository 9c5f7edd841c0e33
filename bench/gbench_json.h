// JSON metrics for the google-benchmark runtime benches.
//
// The sweep benches write BENCH_<exhibit>.json (corropt-bench-metrics/1)
// through bench::write_output; the two gbench binaries get the same
// structured output here. A ConsoleReporter subclass records every
// per-iteration run while still printing the usual table, and
// run_gbench_with_json() then writes one scenario per benchmark with
// timings normalized to milliseconds, so tools/plot_benches.py can draw
// the runtime curves from the shared schema instead of parsing gbench's
// own --benchmark_format.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "scenario_runner.h"

namespace corropt::bench {

struct GBenchRun {
  std::string name;
  double real_time_ms = 0.0;
  double cpu_time_ms = 0.0;
  std::uint64_t iterations = 0;
  std::vector<std::pair<std::string, double>> counters;
};

class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.report_big_o || run.report_rms) {
        continue;
      }
      GBenchRun out;
      out.name = run.benchmark_name();
      // Accumulated times are in seconds regardless of the display unit.
      const double iters =
          run.iterations == 0 ? 1.0 : static_cast<double>(run.iterations);
      out.real_time_ms = run.real_accumulated_time / iters * 1e3;
      out.cpu_time_ms = run.cpu_accumulated_time / iters * 1e3;
      out.iterations = static_cast<std::uint64_t>(run.iterations);
      for (const auto& [counter_name, counter] : run.counters) {
        out.counters.emplace_back(counter_name, counter.value);
      }
      runs_.push_back(std::move(out));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<GBenchRun>& runs() const { return runs_; }

 private:
  std::vector<GBenchRun> runs_;
};

// Drop-in replacement for BENCHMARK_MAIN()'s body: strips the repo-local
// --json-dir flag, forwards everything else to google-benchmark, and
// writes BENCH_<exhibit>.json next to the console table.
inline int run_gbench_with_json(int argc, char** argv, const char* exhibit) {
  std::string json_dir = ".";
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-dir=", 11) == 0) {
      json_dir = argv[i] + 11;
    } else {
      rest.push_back(argv[i]);
    }
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // An empty capture means the reporter saw no iteration runs (filter
  // matched nothing, or gbench changed its run types). Writing a
  // document with "scenarios": [] would look like a successful run to
  // downstream tooling, so refuse instead.
  if (reporter.runs().empty()) {
    std::fprintf(stderr,
                 "%s: no benchmark runs captured; refusing to write an "
                 "empty BENCH_%s.json\n",
                 argv[0], exhibit);
    return 1;
  }

  write_output(
      json_dir + "/BENCH_" + exhibit + ".json", "benchmarks",
      [&](std::ostream& out) {
        common::JsonWriter json(out);
        common::begin_document(json, "corropt-bench-metrics/1", exhibit,
                               std::string("bench_") + exhibit);
        json.key("scenarios").begin_array();
        for (const GBenchRun& run : reporter.runs()) {
          json.begin_object();
          json.member("name", run.name);
          json.key("metrics").begin_object();
          json.member("real_time_ms", run.real_time_ms);
          json.member("cpu_time_ms", run.cpu_time_ms);
          json.member("iterations", run.iterations);
          for (const auto& [counter_name, value] : run.counters) {
            json.member(counter_name, value);
          }
          json.end_object();
          json.end_object();
        }
        json.end_array();
        json.end_object();
        return reporter.runs().size();
      });
  return 0;
}

}  // namespace corropt::bench
