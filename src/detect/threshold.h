// The paper's detection pipeline as a DetectionBackend.
//
// Re-homes the closed-loop monitoring stack sim::DetectionPipeline used
// to own inline: telemetry::PollingMonitor advances the suspect set's
// SNMP counters by one 15-minute epoch and telemetry::CorruptionDetector
// turns the samples into windowed, hysteretic 1e-8 threshold verdicts.
// The poll loop iterates suspects x {kUp, kDown} in exactly the pre-seam
// order and draws from the shared sequential sim stream, so default
// configurations remain byte-identical to the pre-seam pipeline (the
// golden-equivalence contract).
#pragma once

#include "detect/backend.h"
#include "telemetry/detector.h"
#include "telemetry/monitor.h"

namespace corropt::detect {

class ThresholdBackend final : public DetectionBackend {
 public:
  explicit ThresholdBackend(const BackendEnv& env);

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kThreshold;
  }
  [[nodiscard]] std::string_view name() const override { return "threshold"; }

  void poll(common::SimTime now, std::span<const common::LinkId> suspects,
            const VerdictCallback& cb) override;
  void reset(common::LinkId link) override;
  void attach_sink(obs::Sink* sink) override;

  // The monitor is stateless (its counters live in NetworkState and its
  // draws come from the shared sim stream, both serialized elsewhere);
  // only the detector's windows/estimates/alerts need the checkpoint.
  void snapshot_to(common::snap::Writer& w) const override;
  void restore_from(common::snap::Reader& r) override;

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  telemetry::PollingMonitor monitor_;
  telemetry::CorruptionDetector detector_;
};

}  // namespace corropt::detect
