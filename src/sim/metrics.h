// SimulationMetrics: everything one MitigationSimulation run measures.
// Split out of mitigation_sim.h so components can fill their slice of
// the metrics without depending on the composition layer; the public
// surface is unchanged — mitigation_sim.h re-exports everything here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "corropt/controller.h"
#include "obs/sink.h"

namespace corropt::sim {

struct TimePoint {
  common::SimTime time = 0;
  double value = 0.0;
};

struct SimulationMetrics {
  // Penalty per second immediately after each event (step function).
  std::vector<TimePoint> penalty_series;
  // Integral of penalty rate over the run.
  double integrated_penalty = 0.0;
  // Integral binned by hour (for the optimizer-gain ratio of Figure 18).
  std::vector<double> hourly_penalty;

  // Sampled minimum-over-ToRs fraction of available spine paths.
  std::vector<TimePoint> worst_tor_fraction;
  // Sampled count of administratively disabled links (same timestamps).
  std::vector<TimePoint> disabled_links;
  // Time-averaged mean-over-ToRs fraction (Section 7.3).
  double mean_tor_fraction = 1.0;

  // Repair bookkeeping.
  std::size_t faults_injected = 0;
  std::size_t tickets_opened = 0;
  std::size_t repair_attempts = 0;
  std::size_t first_attempt_successes = 0;
  std::size_t first_attempts = 0;
  // kEnableAndObserve only: failed repairs re-detected after exposing
  // live traffic to corruption.
  std::size_t redetections = 0;
  // kPolled only: detections raised by the monitoring pipeline and the
  // mean latency from fault onset to detection.
  std::size_t polled_detections = 0;
  double mean_detection_latency_s = 0.0;
  // kPolled only, judged against ground truth at verdict time:
  // detections whose link was below the lossy threshold (backend false
  // positives) and faults that cleared before the backend ever noticed
  // them (false negatives). Struct-only — not folded into the registry,
  // so golden registry snapshots are unaffected.
  std::size_t false_positive_detections = 0;
  std::size_t missed_detections = 0;
  // Per-detection onset-to-verdict latencies (seconds), for the latency
  // distribution bench_detection_compare reports.
  std::vector<double> detection_latencies_s;
  // Mean time from ticket open to technician completion (includes any
  // crew backlog when ScenarioConfig::queue bounds the technicians).
  double mean_ticket_resolution_s = 0.0;
  // Collateral-maintenance modeling only.
  std::size_t maintenance_windows = 0;
  std::size_t maintenance_capacity_violations = 0;
  double collateral_link_seconds = 0.0;
  // Corrupting links that could never be disabled during the run.
  std::size_t undisabled_detections = 0;

  core::Controller::Stats controller;

  [[nodiscard]] double first_attempt_accuracy() const {
    return first_attempts == 0
               ? 0.0
               : static_cast<double>(first_attempt_successes) /
                     static_cast<double>(first_attempts);
  }
};

// Folds a finished run's metrics into the sink's registry (DESIGN.md
// §8); no-op without a sink or registry.
void publish_metrics(const obs::Sink* sink, const SimulationMetrics& metrics);

// FNV-1a digest of every SimulationMetrics field, scalars and series.
// Two runs are metric-equivalent iff their digests match.
[[nodiscard]] std::uint64_t digest(const SimulationMetrics& metrics);

}  // namespace corropt::sim
