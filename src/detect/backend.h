// The DetectionBackend seam: how the polled pipeline learns that links
// corrupt.
//
// sim::DetectionPipeline owns the poll cadence, the suspect set, the
// pending-detection latency books and the controller hand-off; a
// DetectionBackend owns *how evidence is gathered and turned into
// verdicts* within one poll cycle. Three families are implemented:
//
//   kThreshold  exact SNMP counters vs. the 802.3 1e-8 threshold
//               (the paper's pipeline, re-homed from DetectionPipeline)
//   kVoting     007-style: synthesized flows vote on traversed links
//   kSketch     count-min per-switch drop sketches decoded per window
//
// Determinism contract (DESIGN.md §13): kThreshold draws from the shared
// sequential sim stream (ctx.rng) in exactly the order the pre-seam
// pipeline did, which keeps default-config golden fixtures byte-equal.
// kVoting/kSketch draw exclusively from common::CounterRng keyed on
// (backend seed, entity, cycle), so their cost and draw count never
// perturb the shared stream and results are independent of evaluation
// order. Verdicts are delivered through the callback *during* the cycle
// (not batched): the controller may disable a link mid-cycle and later
// samples of the same cycle must observe that, exactly as the pre-seam
// loop behaved.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "common/ids.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/time.h"
#include "detect/config.h"
#include "obs/sink.h"
#include "telemetry/network_state.h"
#include "topology/topology.h"

namespace corropt::detect {

// What a backend tells the pipeline: the link crossed into (kCorrupting)
// or out of (kCleared) the corrupting set, with its estimated link-level
// loss rate (the worse direction).
struct Verdict {
  enum class Kind { kCorrupting, kCleared };
  Kind kind = Kind::kCorrupting;
  common::LinkId link;
  double loss_rate = 0.0;
};

using VerdictCallback = std::function<void(const Verdict&)>;

// Everything a backend may read or draw from, lent by the simulation.
// `state` and `rng` outlive the backend; `rng` is the shared sequential
// stream and only kThreshold may touch it. No backend writes the
// physical state.
struct BackendEnv {
  const topology::Topology* topo = nullptr;
  const telemetry::NetworkState* state = nullptr;
  common::Rng* rng = nullptr;
  // Scenario seed; keyed backends derive their CounterRng streams from
  // it so runs stay reproducible end to end.
  std::uint64_t seed = 0;
};

// Offered utilization of a polled direction: the load the threshold and
// sketch backends compute their rate estimates from.
inline constexpr double kPollUtilization = 0.3;

class DetectionBackend {
 public:
  virtual ~DetectionBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;

  // Runs one 15-minute poll cycle. `suspects` is the pipeline's belief
  // set (active-fault links + controller corruption entries + pending
  // detections) in deterministic order; counter-based backends gather
  // their own fabric-wide evidence and may ignore it. Verdicts are
  // invoked in a deterministic order as they are produced.
  virtual void poll(common::SimTime now,
                    std::span<const common::LinkId> suspects,
                    const VerdictCallback& cb) = 0;

  // Drops all alert/window state for the link (repair closed, or a
  // shared-component peer was silenced); fresh evidence must
  // re-establish any verdict.
  virtual void reset(common::LinkId link) = 0;

  // Wires backend-internal observability counters. The registry's
  // snapshot order is registration order, so the composition layer calls
  // this at the same point the pre-seam pipeline attached its monitor
  // and detector.
  virtual void attach_sink(obs::Sink* sink) = 0;

  // Checkpointing (DESIGN.md §14): the backend's accumulated evidence —
  // windows, votes, sketch deltas, beliefs, cycle counters. The payload
  // is framed as a blob by the caller (sim::DetectionPipeline) so a
  // branch running a *different* backend kind can skip it unread; a
  // same-kind restore must target a backend built from the same
  // topology (vector sizes are guards).
  virtual void snapshot_to(common::snap::Writer& w) const = 0;
  virtual void restore_from(common::snap::Reader& r) = 0;
};

// Builds the backend of `kind`; every backend reports from
// common::kLossyThreshold.
[[nodiscard]] std::unique_ptr<DetectionBackend> make_backend(
    BackendKind kind, const BackendEnv& env);

}  // namespace corropt::detect
