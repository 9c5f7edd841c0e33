#include "detection_compare.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "bench_util.h"
#include "detect/config.h"
#include "stats/cdf.h"

namespace corropt::bench {

namespace {

struct MixSpec {
  const char* tag;
  faults::FaultMixParams mix;
};

// Three fault-type mixtures, all summing to 1. "table2" is the paper's
// measured distribution (FaultMixParams defaults); the other two skew
// toward the fault classes that stress each backend differently —
// contamination produces many low-rate links (voting's weak spot),
// shared components produce correlated multi-link faults (where sketch
// candidate scans and 007 path votes shine or break).
std::vector<MixSpec> fault_mixes() {
  std::vector<MixSpec> mixes;
  mixes.push_back({"table2", faults::FaultMixParams{}});

  faults::FaultMixParams contamination;
  contamination.p_contamination = 0.57;
  contamination.p_damaged_fiber = 0.17;
  contamination.p_bad_transceiver = 0.14;
  // p_decaying_transmitter 0.008 and p_shared_component 0.112 unchanged.
  mixes.push_back({"contamination_heavy", contamination});

  faults::FaultMixParams shared;
  shared.p_contamination = 0.28;
  shared.p_damaged_fiber = 0.24;
  shared.p_bad_transceiver = 0.212;
  shared.p_shared_component = 0.26;
  mixes.push_back({"shared_heavy", shared});
  return mixes;
}

constexpr detect::BackendKind kBackends[] = {detect::BackendKind::kThreshold,
                                             detect::BackendKind::kVoting,
                                             detect::BackendKind::kSketch};

std::string tag_value(const ScenarioResult& result, const std::string& key) {
  for (const auto& [k, v] : result.tags) {
    if (k == key) return v;
  }
  return {};
}

}  // namespace

std::vector<ScenarioJob> make_detection_compare_jobs(
    common::SimDuration duration) {
  std::vector<ScenarioJob> jobs;
  const std::vector<MixSpec> mixes = fault_mixes();
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    // One trace + sim seed pair per mix, shared across backends, so
    // within a mix the backend is the only difference between rows.
    const std::uint64_t trace_seed = derive_seed(808, m);
    const std::uint64_t sim_seed = derive_seed(809, m);
    for (const detect::BackendKind backend : kBackends) {
      ScenarioJob job = make_dcn_job(
          std::string(detect::backend_name(backend)) + "/" + mixes[m].tag,
          Dcn::kMedium, core::CheckerMode::kCorrOpt,
          /*capacity_fraction=*/0.75, kFaultsPerLinkPerDay, duration,
          trace_seed, sim_seed);
      job.tags = {{"backend", std::string(detect::backend_name(backend))},
                  {"mix", mixes[m].tag}};
      job.trace.mix = mixes[m].mix;
      job.config.detection = sim::DetectionMode::kPolled;
      job.config.backend.kind = backend;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<DetectionCompareSummary> summarize_detection_compare(
    const std::vector<ScenarioResult>& results) {
  // Threshold baseline penalty per mix, for the within-mix delta.
  std::unordered_map<std::string, double> threshold_penalty;
  for (const ScenarioResult& result : results) {
    if (tag_value(result, "backend") ==
        detect::backend_name(detect::BackendKind::kThreshold)) {
      threshold_penalty[tag_value(result, "mix")] =
          result.metrics.integrated_penalty;
    }
  }

  std::vector<DetectionCompareSummary> rows;
  rows.reserve(results.size());
  for (const ScenarioResult& result : results) {
    DetectionCompareSummary row;
    row.name = result.name;
    row.backend = tag_value(result, "backend");
    row.mix = tag_value(result, "mix");
    row.faults_injected = result.metrics.faults_injected;
    row.polled_detections = result.metrics.polled_detections;
    row.false_positives = result.metrics.false_positive_detections;
    row.missed = result.metrics.missed_detections;
    row.matched_detections = result.metrics.detection_latencies_s.size();
    row.integrated_penalty = result.metrics.integrated_penalty;
    row.mean_latency_s = result.metrics.mean_detection_latency_s;

    // Nearest-rank latency percentiles; 0 when nothing was detected.
    if (!result.metrics.detection_latencies_s.empty()) {
      stats::EmpiricalCdf latencies(result.metrics.detection_latencies_s);
      row.latency_p50_s = latencies.quantile(0.50);
      row.latency_p90_s = latencies.quantile(0.90);
      row.latency_p99_s = latencies.quantile(0.99);
    }

    if (row.polled_detections > 0) {
      row.fp_rate = static_cast<double>(row.false_positives) /
                    static_cast<double>(row.polled_detections);
    }
    const std::size_t truth_total = row.missed + row.matched_detections;
    if (truth_total > 0) {
      row.fn_rate = static_cast<double>(row.missed) /
                    static_cast<double>(truth_total);
    }
    const auto baseline = threshold_penalty.find(row.mix);
    if (baseline != threshold_penalty.end() && baseline->second != 0.0) {
      row.penalty_delta_vs_threshold =
          (row.integrated_penalty - baseline->second) / baseline->second;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

void write_detection_compare(std::ostream& out,
                             const std::vector<ScenarioResult>& results,
                             const std::string& generator) {
  const std::vector<DetectionCompareSummary> rows =
      summarize_detection_compare(results);
  common::JsonWriter json(out);
  // threads = 0: like the fleet document, this file is defined to be
  // byte-identical for any worker count, so neither the pool size nor
  // per-job wall clocks appear.
  open_metrics_document(json, "corropt-bench-metrics/1", "detection_compare",
                        generator, /*threads=*/0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& result = results[i];
    const DetectionCompareSummary& row = rows[i];
    json.begin_object();
    json.member("name", result.name);
    json.key("tags").begin_object();
    for (const auto& [key, value] : result.tags) json.member(key, value);
    json.end_object();
    json.member("link_count", result.link_count);
    json.key("metrics").begin_object();
    json.member("integrated_penalty", result.metrics.integrated_penalty);
    json.member("mean_tor_fraction", result.metrics.mean_tor_fraction);
    json.member("faults_injected", result.metrics.faults_injected);
    json.member("tickets_opened", result.metrics.tickets_opened);
    json.member("repair_attempts", result.metrics.repair_attempts);
    json.member("polled_detections", result.metrics.polled_detections);
    json.member("mean_detection_latency_s",
                result.metrics.mean_detection_latency_s);
    json.member("undisabled_detections",
                result.metrics.undisabled_detections);
    json.end_object();
    json.key("detection").begin_object();
    json.member("matched_detections", row.matched_detections);
    json.member("false_positives", row.false_positives);
    json.member("missed", row.missed);
    json.member("fp_rate", row.fp_rate);
    json.member("fn_rate", row.fn_rate);
    json.member("latency_p50_s", row.latency_p50_s);
    json.member("latency_p90_s", row.latency_p90_s);
    json.member("latency_p99_s", row.latency_p99_s);
    json.member("penalty_delta_vs_threshold",
                row.penalty_delta_vs_threshold);
    json.end_object();
    json.end_object();
  }
  close_metrics_document(json);
}

}  // namespace

std::string detection_compare_json(const std::vector<ScenarioResult>& results,
                                   const std::string& generator) {
  std::ostringstream out;
  write_detection_compare(out, results, generator);
  return out.str();
}

void write_detection_compare_json(const std::string& path,
                                  const std::vector<ScenarioResult>& results,
                                  const std::string& generator) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  write_detection_compare(out, results, generator);
  if (!out) {
    throw std::runtime_error("write to " + path + " failed");
  }
}

}  // namespace corropt::bench
