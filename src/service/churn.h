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
#include "service/telemetry_event.h"
#include "topology/topology.h"
#include "trace/trace.h"

namespace corropt::service {

struct ChurnParams {
  trace::TraceParams trace;
  std::uint64_t seed = 1;
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
