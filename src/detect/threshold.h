// The paper's detection pipeline as a DetectionBackend.
//
// Production switches report packet and packet-error counters every 15
// minutes (Section 2), and the paper conservatively deems a link lossy
// once its corruption loss rate reaches the IEEE 802.3 threshold of 1e-8
// (Section 3). Each poll cycle draws one epoch of SNMP counter deltas
// for every direction of the suspect set and folds them into a per-
// direction window of kWindowPolls polls. A complete window carrying at
// least kMinWindowPackets packets updates the direction's rate estimate;
// the link is flagged when its worse direction reaches
// common::kLossyThreshold and cleared below common::kClearThreshold, so
// Poisson noise does not flap it in and out of the corrupting set.
//
// The poll loop iterates suspects x {kUp, kDown} in exactly the pre-seam
// order and draws from the shared sequential sim stream, so default
// configurations remain byte-identical to the pre-seam pipeline (the
// golden-equivalence contract).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "detect/backend.h"

namespace corropt::detect {

class ThresholdBackend final : public DetectionBackend {
 public:
  // Polls aggregated per verdict (a 4-poll window = 1 hour).
  static constexpr int kWindowPolls = 4;
  // Minimum packets observed in the window before any verdict: below
  // this, one corrupt frame would exceed 1e-8 spuriously.
  static constexpr std::uint64_t kMinWindowPackets = 1000000;

  explicit ThresholdBackend(const BackendEnv& env);

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kThreshold;
  }

  // Polls every direction of the suspects for one 15-minute epoch at
  // kPollUtilization: an enabled direction carries
  // kPacketsPerPoll * kPollUtilization packets and drops a Poisson
  // number of them at its corruption rate; a disabled link carries no
  // traffic. Each direction's deltas go through observe().
  void poll(common::SimTime now, std::span<const common::LinkId> suspects,
            const VerdictCallback& cb) override;

  // Folds one direction's poll deltas into its window. Returns a verdict
  // when the window completes with enough packets and the link's verdict
  // changed.
  std::optional<Verdict> observe(common::DirectionId direction,
                                 std::uint64_t packets, std::uint64_t drops);

  // Resolves the link's alert state (e.g. after a repair ticket closes):
  // pending windows and estimates are dropped, and fresh polls must
  // re-establish any verdict.
  void reset(common::LinkId link) override;

  // "telemetry.polls" counts polled directions and
  // "telemetry.detections" / "telemetry.clears" count verdict flips.
  // "telemetry.poll_cycles" is registered but stays 0: nothing polls the
  // whole fabric at once, and the metrics documents keep the key.
  void attach_sink(obs::Sink* sink) override;

  // Checkpointing (DESIGN.md §14): per-direction windows and estimates
  // plus the per-link alert state. The draws come from the shared sim
  // stream, which is serialized elsewhere.
  void snapshot_to(common::snap::Writer& w) const override;
  void restore_from(common::snap::Reader& r) override;

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  struct Window {
    std::uint64_t packets = 0;
    std::uint64_t drops = 0;
    int polls = 0;
  };

  const topology::Topology* topo_;
  const telemetry::NetworkState* state_;
  common::Rng* rng_;
  // Per-direction accumulation window.
  std::vector<Window> windows_;
  // Latest per-direction rate estimate from a completed, valid window.
  std::vector<double> estimates_;
  std::vector<char> corrupting_;  // Per link.
  obs::Counter obs_polls_;
  obs::Counter obs_detections_;
  obs::Counter obs_clears_;
};

}  // namespace corropt::detect
