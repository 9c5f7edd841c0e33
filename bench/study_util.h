// Shared plumbing for the measurement-study benches (Figures 1-5,
// Table 1, the Section 3 stage mix).
//
// The converted benches run their studies through the sharded
// accumulator API, so they all need the same three things: a worker
// pool sized by --threads, a --quick cap expressed in study days, and a
// BENCH_<exhibit>.json metrics document whose scenarios carry scalar
// metrics rather than simulation results. CSV rows on stdout stay the
// plotting interface; the JSON adds the machine-readable mirror in the
// corropt-bench-metrics/1 schema.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "scenario_runner.h"

namespace corropt::bench {

// --quick cap for epoch-driven studies: two days keeps a CI smoke run
// in seconds while still spanning multiple diurnal cycles.
[[nodiscard]] inline int days_or(const BenchArgs& args, int full) {
  return args.quick && full > 2 ? 2 : full;
}

// One scenario row of a study bench's metrics document: a name plus
// flat scalar metrics.
struct StudyScenario {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
};

// Writes BENCH_<exhibit>.json in the corropt-bench-metrics/1 schema.
// Scenario metrics are deterministic for any thread count; `threads` in
// the envelope is the one field determinism diffs strip.
inline void write_study_metrics_json(const std::string& path,
                                     const std::string& exhibit,
                                     const std::string& generator,
                                     std::size_t threads,
                                     const std::vector<StudyScenario>& rows) {
  write_output(path, "scenarios", [&](std::ostream& out) {
    common::JsonWriter json(out);
    common::begin_document(json, "corropt-bench-metrics/1", exhibit,
                           generator, threads);
    json.key("scenarios").begin_array();
    for (const StudyScenario& row : rows) {
      json.begin_object();
      json.member("name", row.name);
      json.key("metrics").begin_object();
      for (const auto& [key, value] : row.metrics) {
        json.member(key, value);
      }
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return rows.size();
  });
}

}  // namespace corropt::bench
