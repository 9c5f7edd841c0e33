// Selection of the pluggable detection/localization backends.
//
// The paper detects corruption from exact per-switch SNMP counters
// crossing the 802.3 1e-8 threshold (src/telemetry). Real fabrics
// increasingly localize drops from end-host flow evidence (007, Arzani
// et al.: failed flows vote on the links of their paths) or from compact
// switch summaries (sketch decomposition: count-min counters instead of
// exact per-direction registers). This header holds the selection enum;
// it is deliberately free of heavy includes so sim::ScenarioConfig can
// embed a BackendKind without pulling the backend implementations into
// every translation unit. Each backend's tuning lives as named
// constants next to the code that reads them.
#pragma once

#include <cstdint>
#include <string_view>

namespace corropt::detect {

// Which detection/localization backend drives the polled pipeline.
enum class BackendKind : std::uint8_t {
  // The paper's pipeline: SNMP counter polls of the suspect set against
  // a windowed 1e-8 threshold with hysteresis (detect::ThresholdBackend).
  // The default; byte-identical to the pre-seam DetectionPipeline.
  kThreshold,
  // 007-style voting localizer: per-flow Clos paths are synthesized from
  // the topology, flows that saw retransmits cast one vote on every link
  // they traversed, and a greedy decomposition surfaces the top-voted
  // suspects.
  kVoting,
  // Sketch-based flow-loss detector: each switch keeps a count-min style
  // per-direction drop sketch (width x depth counters instead of exact
  // per-direction registers); lossy links are decoded from the sketch
  // deltas of each window.
  kSketch,
};

[[nodiscard]] std::string_view backend_name(BackendKind kind);

}  // namespace corropt::detect
