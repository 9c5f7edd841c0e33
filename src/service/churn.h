// Burst/churn telemetry synthesis for the runtime control loop.
//
// Turns a corruption fault trace (trace::CorruptionTraceGenerator — the
// same Poisson-plus-bursts model the simulations replay) into the
// telemetry stream a deployed controller would see: one detection per
// corrupting link at fault onset, and later either a repair completion
// (exponential time-to-repair, matching the paper's ~2-day ticket
// service times) or a monitoring retraction for reports that decay on
// their own. The stream is time-sorted and deterministic in the seed,
// so a control loop and its verify_incremental replay see the identical
// event sequence for equivalence checks (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "detect/config.h"
#include "service/telemetry_event.h"
#include "topology/topology.h"
#include "trace/trace.h"

namespace corropt::service {

struct ChurnParams {
  trace::TraceParams trace;
  // Mean delay from detection to repair completion (exponential).
  common::SimDuration mean_time_to_repair = common::kMeanRepairTime;
  // Fraction of reports monitoring withdraws without a repair.
  double p_cleared_without_repair = 0.1;
  std::uint64_t seed = 1;
  // Detection backend shaping the stream (detect::backend_profile): a
  // non-threshold backend delays each detection by its extra latency and
  // interleaves spurious report/retraction pairs at its false-positive
  // rate. All shaping draws are counter-keyed, so the default threshold
  // stream is byte-identical to a ChurnParams without this field.
  detect::BackendConfig backend;
};

// Synthesizes the telemetry stream. Per fault, each affected link whose
// peak direction corruption rate is at or above the lossy threshold
// yields one kCorruptionDetected at onset and one terminating event
// (kLinkRepaired or kCorruptionCleared) after the repair delay. Events
// are stably sorted by time, so same-timestamp events keep generation
// order and the stream is reproducible bit-for-bit.
[[nodiscard]] std::vector<TelemetryEvent> make_churn_stream(
    const topology::Topology& topo, const ChurnParams& params);

}  // namespace corropt::service
