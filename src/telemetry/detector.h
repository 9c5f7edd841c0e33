// Corruption detection from SNMP counters.
//
// The controller does not see fault injections — production switches
// report packet-error counters every poll (Section 2), and a detection
// pipeline turns those noisy counters into "link is corrupting at rate f"
// events. This detector implements the conservative policy the paper
// describes: a link is deemed lossy when its corruption loss rate over
// the observation window crosses the IEEE 802.3 threshold of 1e-8, with
// a minimum packet count so that a single corrupt frame on an idle link
// does not page anyone, and hysteresis so a link is not flapped in and
// out of the corrupting set by Poisson noise.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/lossy.h"
#include "common/snapshot.h"
#include "common/time.h"
#include "obs/sink.h"
#include "telemetry/monitor.h"
#include "topology/topology.h"

namespace corropt::telemetry {

// What the detector tells the controller.
struct DetectionEvent {
  enum class Kind {
    // Link crossed the lossy threshold (or its estimate materially
    // changed while corrupting).
    kCorrupting,
    // Previously corrupting link dropped below the clear threshold.
    kCleared,
  };
  Kind kind = Kind::kCorrupting;
  common::LinkId link;
  // Estimated link-level corruption loss rate (worse direction).
  double loss_rate = 0.0;
  common::SimTime time = 0;
};

// A link is declared corrupting when its rate reaches
// common::kLossyThreshold (Section 3: the paper conservatively uses the
// 802.3 limit) and clean again below common::kClearThreshold.
class CorruptionDetector {
 public:
  // Polls aggregated per verdict (a 4-poll window = 1 hour).
  static constexpr int kWindowPolls = 4;
  // Minimum packets observed in the window before any verdict: below
  // this, one corrupt frame would exceed 1e-8 spuriously.
  static constexpr std::uint64_t kMinWindowPackets = 1000000;

  explicit CorruptionDetector(const topology::Topology& topo);

  // Feeds one poll sample; returns an event when a window completes for
  // the sample's link and the verdict changed.
  std::optional<DetectionEvent> observe(const PollSample& sample);

  // Resolves the link's alert state (e.g. after a repair ticket closes):
  // pending windows and estimates are dropped, and fresh polls must
  // re-establish any verdict.
  void reset(common::LinkId link);

  // Attaches observability: "telemetry.detections" / "telemetry.clears"
  // count verdict flips. Pass nullptr to detach.
  void set_sink(obs::Sink* sink);

  // Checkpointing (DESIGN.md §14): per-direction accumulation windows
  // and estimates plus the per-link alert state.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  struct Window {
    std::uint64_t packets = 0;
    std::uint64_t drops = 0;
    int polls = 0;
  };

  // Per-direction accumulation window.
  std::vector<Window> windows_;
  // Latest per-direction rate estimate from a completed, valid window.
  std::vector<double> estimates_;
  std::vector<char> corrupting_;  // Per link.
  obs::Counter obs_detections_;
  obs::Counter obs_clears_;
};

}  // namespace corropt::telemetry
