// SimulationMetrics: everything one MitigationSimulation run measures.
// Split out of mitigation_sim.h so components can fill their slice of
// the metrics without depending on the composition layer; the public
// surface is unchanged — mitigation_sim.h re-exports everything here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/json.h"
#include "common/snapshot.h"
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

  // The one field list, every field but `controller` (the checkpoint
  // carries those stats in the controller's own section): the
  // checkpoint's MTRX section and, with Controller::Stats::walk,
  // digest() below.
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c) {
    const auto series = [&c](auto& points) {
      c.seq(points, [&c](auto& p) {
        c.i64(p.time);
        c.f64(p.value);
      });
    };
    const auto doubles = [&c](auto& values) {
      c.seq(values, [&c](auto& v) { c.f64(v); });
    };
    c.section(common::snap::tag('M', 'T', 'R', 'X'), 1, "metrics");
    series(self.penalty_series);
    c.f64(self.integrated_penalty);
    doubles(self.hourly_penalty);
    series(self.worst_tor_fraction);
    series(self.disabled_links);
    c.f64(self.mean_tor_fraction);
    c.u64(self.faults_injected);
    c.u64(self.tickets_opened);
    c.u64(self.repair_attempts);
    c.u64(self.first_attempt_successes);
    c.u64(self.first_attempts);
    c.u64(self.redetections);
    c.u64(self.polled_detections);
    c.f64(self.mean_detection_latency_s);
    c.u64(self.false_positive_detections);
    c.u64(self.missed_detections);
    doubles(self.detection_latencies_s);
    c.f64(self.mean_ticket_resolution_s);
    c.u64(self.maintenance_windows);
    c.u64(self.maintenance_capacity_violations);
    c.f64(self.collateral_link_seconds);
    c.u64(self.undisabled_detections);
  }
};

// Folds a finished run's metrics into the sink's registry (DESIGN.md
// §8); no-op without a sink or registry.
void publish_metrics(const obs::Sink* sink, const SimulationMetrics& metrics);

// snap::digest of the codec bytes of SimulationMetrics::walk, then
// Controller::Stats::walk: every field, scalars and series. Two runs are
// metric-equivalent iff their digests match.
[[nodiscard]] std::uint64_t digest(const SimulationMetrics& metrics);

// Writes `stats` as the "controller" member of the object `json` has
// open: the one controller block of every BENCH_ document.
void write_controller_json(common::JsonWriter& json,
                           const core::Controller::Stats& stats);

}  // namespace corropt::sim
