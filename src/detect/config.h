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

namespace corropt::detect {

// Which detection/localization backend drives the polled pipeline.
enum class BackendKind : std::uint8_t {
  // The paper's pipeline: SNMP counter polls of the suspect set through
  // telemetry::PollingMonitor + telemetry::CorruptionDetector (windowed
  // 1e-8 threshold with hysteresis). The default; byte-identical to the
  // pre-seam DetectionPipeline.
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
  // Packets carried per flow; a flow "fails" (sees retransmits) when at
  // least one packet is dropped, evaluated in closed form so the cost is
  // independent of this count.
  double packets_per_flow = 1e6;
  // Poll cycles aggregated per voting round (8 cycles = 2 hours).
  int window_cycles = 8;
  // Minimum failed flows through a link before it can be named a
  // suspect; 007's guard against single-flow noise.
  std::uint64_t min_votes = 3;
  // Minimum (all) flows observed through a believed link in a window
  // with zero failures before the report is withdrawn.
  std::uint64_t min_flows_to_clear = 6;
  // Per-flow probability of failing for non-corruption reasons
  // (congestion bursts, host retransmit noise); the localizer's false
  // positive source.
  double noise_bad_probability = 5e-4;
  // Estimated per-packet loss rate a suspect must reach to be reported.
  double report_threshold = 1e-8;
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
  // Consecutive windows a direction must decode above threshold before
  // the link is reported; rides out one-window congestion noise the
  // sketch cannot attribute (it has no corruption/congestion split).
  int persistence_windows = 2;
  // Estimated rate thresholds (decoded drops / offered packets).
  double report_threshold = 1e-8;
  double clear_threshold = 5e-9;
  // Minimum offered packets per window before a decode is meaningful.
  std::uint64_t min_packets = 1000000;
  // Congestion-noise model: expected number of directions per poll cycle
  // that record non-corruption drops, and the mean drop count of one
  // such burst. These insertions are indistinguishable from corruption
  // inside the sketch.
  double noise_directions_per_cycle = 2.0;
  double mean_noise_drops = 40.0;
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

// Stream-shaping profile of a backend for service::make_churn_stream:
// how much detection latency the backend adds over the SNMP threshold
// pipeline, and what fraction of its reports are spurious. Values are
// calibrated against bench_detection_compare (EXPERIMENTS.md).
struct BackendProfile {
  // Mean extra delay from fault onset to report, on top of the
  // threshold pipeline's polling latency (exponential).
  double extra_latency_mean_s = 0.0;
  // Spurious reports per genuine report (each is later withdrawn).
  double false_positive_fraction = 0.0;
};

[[nodiscard]] BackendProfile backend_profile(BackendKind kind);

}  // namespace corropt::detect
