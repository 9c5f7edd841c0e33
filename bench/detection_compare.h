// Backend x fault-mix comparison grid for the detection subsystem.
//
// Shared by bench_detection_compare and the regression tests: the tests
// re-run the --quick grid on 1 and 4 threads and assert the serialized
// document is byte-identical, the same contract bench_fleet carries.
// The grid runs the medium DCN in kPolled mode under each detection
// backend (threshold / voting / sketch) against three fault mixes (the
// Table 2 mid-points, contamination-heavy, shared-component-heavy);
// within a mix every backend replays the identical trace with the
// identical sim seed, so the backend is the only delta and the
// threshold row is the penalty baseline.
#pragma once

#include <string>
#include <vector>

#include "common/time.h"
#include "scenario_runner.h"

namespace corropt::bench {

// Derived per-row numbers the raw SimulationMetrics do not carry.
struct DetectionCompareSummary {
  std::string name;
  std::string backend;
  std::string mix;
  std::size_t faults_injected = 0;
  std::size_t polled_detections = 0;
  // Ground-truth classification from the pipeline (DESIGN.md §13).
  std::size_t false_positives = 0;
  std::size_t missed = 0;
  // Detections matched to a pending fault (the latency sample count).
  std::size_t matched_detections = 0;
  double integrated_penalty = 0.0;
  double mean_latency_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  // false_positives / polled_detections.
  double fp_rate = 0.0;
  // missed / (missed + matched_detections).
  double fn_rate = 0.0;
  // (penalty - threshold_penalty) / threshold_penalty within the mix.
  double penalty_delta_vs_threshold = 0.0;
};

// The 3 backends x 3 fault mixes job grid (medium DCN, CorrOpt mode,
// c = 0.75, kPolled detection).
[[nodiscard]] std::vector<ScenarioJob> make_detection_compare_jobs(
    common::SimDuration duration);

// Folds raw results (in make_detection_compare_jobs order) into one
// summary per row, including the within-mix penalty delta against the
// threshold backend.
[[nodiscard]] std::vector<DetectionCompareSummary> summarize_detection_compare(
    const std::vector<ScenarioResult>& results);

// Serializes the grid as a corropt-bench-metrics/1 document. Like the
// fleet document, "threads" and wall clocks are deliberately absent: the
// bytes are identical for any worker count.
[[nodiscard]] std::string detection_compare_json(
    const std::vector<ScenarioResult>& results, const std::string& generator);

}  // namespace corropt::bench
