// Configuration of the pluggable detection/localization backends.
//
// The paper detects corruption from exact per-switch SNMP counters
// crossing the 802.3 1e-8 threshold (src/telemetry). Real fabrics
// increasingly localize drops from end-host flow evidence (007, Arzani
// et al.: failed flows vote on the links of their paths) or from compact
// switch summaries (sketch decomposition: count-min counters instead of
// exact per-direction registers). This header holds the selection enum
// and per-backend parameters; it is deliberately free of heavy includes
// so sim::ScenarioConfig can embed a BackendConfig without pulling the
// backend implementations into every translation unit.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/lossy.h"

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

// Parameters of the 007-style voting localizer.
struct VotingParams {
  // Flows synthesized per 15-minute poll cycle, spread over random
  // (src ToR, dst ToR) pairs with valley-free Clos paths.
  std::size_t flows_per_cycle = 2000;
  // Minimum failed flows through a link before it can be named a
  // suspect; 007's guard against single-flow noise.
  std::uint64_t min_votes = 3;
  // Per-flow probability of failing for non-corruption reasons
  // (congestion bursts, host retransmit noise); the localizer's false
  // positive source.
  double noise_bad_probability = 5e-4;
};

// Parameters of the sketch-based flow-loss detector.
struct SketchParams {
  // Count-min geometry per switch: `width` counters per row, `depth`
  // independently hashed rows (estimate = min over rows). Collisions
  // inflate estimates, so small sketches trade memory for false
  // positives — the evaluation axis of bench_detection_compare.
  std::uint32_t width = 512;
  std::uint32_t depth = 2;
  // Poll cycles aggregated per decode (sketches hold window deltas and
  // are reset after decoding).
  int window_polls = 4;
  // Estimated rate (decoded drops / offered packets) below which a
  // reported link is cleared; it is reported from
  // common::kLossyThreshold on.
  double clear_threshold = common::kClearThreshold;
  // Minimum offered packets per window before a decode is meaningful.
  std::uint64_t min_packets = 1000000;
  // Congestion-noise model: expected number of directions per poll cycle
  // that record non-corruption drops (SketchBackend fixes the mean drop
  // count of one burst). These insertions are indistinguishable from
  // corruption inside the sketch.
  double noise_directions_per_cycle = 2.0;
};

// Backend selection plus per-backend parameters, embedded in
// sim::ScenarioConfig (and therefore in fleet::DcSpec overrides).
struct BackendConfig {
  BackendKind kind = BackendKind::kThreshold;
  VotingParams voting;
  SketchParams sketch;

  // Detailed detection observability: the polled pipeline registers
  // detect.* counters (verdicts / false positives / missed faults /
  // latency histogram) and journals one kDetectionVerdict record per
  // verdict. Every backend but the default threshold one gets it; the
  // threshold backend's registry snapshots and journals stay exactly
  // those of the paper's pipeline.
  [[nodiscard]] bool detailed_obs() const {
    return kind != BackendKind::kThreshold;
  }
};

}  // namespace corropt::detect
