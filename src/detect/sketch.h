// Sketch-based flow-loss detector.
//
// Models a switch dataplane that cannot afford exact per-direction drop
// registers: each switch keeps one count-min sketch (width x depth
// counters, estimate = min over rows) over its egress directions. Every
// poll cycle the drops each lossy direction would have recorded are
// inserted under that direction's hashes; congestion noise bursts land
// in the same sketch, indistinguishable from corruption. Every
// kWindowPolls cycles the backend decodes the sketch deltas of dirty
// switches: a direction whose estimate implies a loss rate at or above
// common::kLossyThreshold for kPersistenceWindows consecutive windows is
// reported, and a reported link is cleared below common::kClearThreshold.
// False positives come from hash collisions — two directions sharing
// cells in every row — so the kWidth x kDepth geometry trades memory
// for precision.
//
// Determinism: all drop counts are drawn from CounterRng keyed on
// (seed, direction, poll time) and noise from reserved streams, so the
// backend never touches the shared sequential sim stream and results
// are independent of evaluation order.
#pragma once

#include <vector>

#include "detect/backend.h"

namespace corropt::detect {

class SketchBackend final : public DetectionBackend {
 public:
  // Consecutive windows a direction must decode above threshold before
  // the link is reported; rides out one-window congestion noise the
  // sketch cannot attribute (it has no corruption/congestion split).
  static constexpr int kPersistenceWindows = 2;
  // Count-min geometry per switch: kWidth counters per row, kDepth
  // independently hashed rows (estimate = min over rows).
  static constexpr std::uint32_t kWidth = 512;
  static constexpr std::uint32_t kDepth = 2;
  // Poll cycles aggregated per decode (sketches hold window deltas and
  // are reset after decoding).
  static constexpr int kWindowPolls = 4;
  // Congestion-noise model: expected number of directions per poll cycle
  // that record non-corruption drops (each burst has a fixed mean drop
  // count). These insertions are indistinguishable from corruption
  // inside the sketch.
  static constexpr double kNoiseDirectionsPerCycle = 2.0;

  explicit SketchBackend(const BackendEnv& env);

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kSketch;
  }

  void poll(common::SimTime now, std::span<const common::LinkId> suspects,
            const VerdictCallback& cb) override;
  void reset(common::LinkId link) override;
  void attach_sink(obs::Sink* sink) override;

  // Checkpoints the cycle counter, per-switch sketch contents, the
  // window's exact insertion totals and dirty set, and the per-link
  // persistence/belief state.
  void snapshot_to(common::snap::Writer& w) const override;
  void restore_from(common::snap::Reader& r) override;

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  // Row-r cell index of a direction in its switch's sketch.
  [[nodiscard]] std::size_t cell(common::DirectionId dir,
                                 std::uint32_t row) const;
  // Adds `drops` under every row hash of `dir` in the transmitting
  // switch's (lazily allocated) sketch.
  void insert(common::DirectionId dir, std::uint64_t drops);
  // Count-min point query for one direction; 0 when the transmitting
  // switch never allocated a sketch.
  [[nodiscard]] std::uint64_t query(common::DirectionId dir) const;
  // End-of-window decode over dirty switches + believed links, then
  // clears all sketch deltas.
  void decode(const VerdictCallback& cb);

  const topology::Topology* topo_;
  const telemetry::NetworkState* state_;
  std::uint64_t seed_ = 0;

  std::uint64_t cycle_ = 0;
  // Per-switch sketches; empty vector = never allocated. Allocated size
  // is kWidth * kDepth, row-major.
  std::vector<std::vector<std::uint64_t>> sketches_;
  // Exact per-direction insertion totals this window, so reset(link) can
  // subtract a direction's contribution from every row without touching
  // colliding directions.
  std::vector<std::uint64_t> inserted_;
  // Switches whose sketch received insertions this window.
  std::vector<char> dirty_;
  std::vector<common::SwitchId> dirty_list_;
  // Per-link verdict state: consecutive above-threshold windows and the
  // current belief.
  std::vector<int> above_;
  std::vector<char> believed_;
  // Scratch for candidate gathering during decode.
  std::vector<char> link_mark_;

  obs::Counter obs_inserts_;
  obs::Counter obs_decodes_;
};

}  // namespace corropt::detect
