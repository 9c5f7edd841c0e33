// The runtime control loop (DESIGN.md §12).
//
// Wraps corropt::core::Controller as a long-lived service: telemetry
// events stream in, each is dispatched to the controller under a
// wall-clock latency measurement, and a running digest captures every
// decision the loop makes. The optimizer keeps its segment and closure
// caches across events; a replay of the same stream with
// verify_incremental re-solving every optimizer run cold must produce
// the same digests, which bench_runtime_controller and the CI bench
// smoke assert next to the loop's sustained decisions/sec.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "corropt/controller.h"
#include "obs/sink.h"
#include "service/telemetry_event.h"
#include "topology/topology.h"

namespace corropt::service {

struct ControlLoopConfig {
  // Controller configuration, including the verify_incremental debug
  // switch (core::ControllerConfig).
  core::ControllerConfig controller;
};

class ControlLoop {
 public:
  // The loop mutates link state on `topo` through its controller. When a
  // sink is given, the loop advances sink->now to each event's time
  // before dispatch (so journaled decisions carry simulation time) and
  // records per-event wall latency in the "service.decision_s" timer.
  ControlLoop(topology::Topology& topo, ControlLoopConfig config,
              obs::Sink* sink = nullptr);

  // Dispatches one telemetry event to the controller, measuring its
  // wall-clock handling latency and folding the decision into the
  // digest. Events must arrive in time order.
  void process(const TelemetryEvent& event);

  struct Stats {
    std::size_t events = 0;
    std::size_t corruption_reports = 0;
    std::size_t repairs = 0;
    std::size_t clears = 0;
    // Total wall-clock time spent inside controller dispatch; sustained
    // throughput = events / busy_seconds.
    double busy_seconds = 0.0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Per-event dispatch latencies, seconds, in arrival order.
  [[nodiscard]] const std::vector<double>& decision_latencies() const {
    return latencies_;
  }

  // FNV-1a fold of every decision the loop has made — per event: the
  // kind, the link, the arrival verdict, and the controller's active
  // penalty after handling — plus the final enabled mask and the codec
  // bytes of the controller's stats (Controller::Stats::walk). Two loops
  // are decision-equivalent iff their digests match (search-effort
  // diagnostics are deliberately not folded in).
  [[nodiscard]] std::uint64_t decisions_digest() const;

  [[nodiscard]] core::Controller& controller() { return controller_; }

 private:
  topology::Topology* topo_;
  core::Controller controller_;
  obs::Sink* sink_;
  Stats stats_;
  std::vector<double> latencies_;
  std::uint64_t digest_ = common::kFnvBasis;
  obs::Histogram obs_decision_timer_;
};

}  // namespace corropt::service
