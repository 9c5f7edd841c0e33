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
