#include "detect/backend.h"

#include "detect/sketch.h"
#include "detect/threshold.h"
#include "detect/voting.h"

namespace corropt::detect {

std::string_view backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kThreshold:
      return "threshold";
    case BackendKind::kVoting:
      return "voting";
    case BackendKind::kSketch:
      return "sketch";
  }
  return "unknown";
}

BackendProfile backend_profile(BackendKind kind) {
  switch (kind) {
    case BackendKind::kThreshold:
      // The reference: SNMP polling latency only.
      return {0.0, 0.0};
    case BackendKind::kVoting:
      // An 8-cycle (2 h) voting window vs. the threshold detector's
      // 4-poll (1 h) window adds about one hour of mean latency; noisy
      // flows occasionally elect a clean link.
      return {3600.0, 0.02};
    case BackendKind::kSketch:
      // Two consecutive 1 h windows before a report; hash collisions
      // make spurious reports the most common of the three families.
      return {2700.0, 0.05};
  }
  return {0.0, 0.0};
}

std::unique_ptr<DetectionBackend> make_backend(const BackendConfig& config,
                                               const BackendEnv& env) {
  switch (config.kind) {
    case BackendKind::kVoting:
      return std::make_unique<VotingBackend>(config.voting, env);
    case BackendKind::kSketch:
      return std::make_unique<SketchBackend>(config.sketch, env);
    case BackendKind::kThreshold:
      break;
  }
  return std::make_unique<ThresholdBackend>(env);
}

}  // namespace corropt::detect
