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

std::unique_ptr<DetectionBackend> make_backend(BackendKind kind,
                                               const BackendEnv& env) {
  switch (kind) {
    case BackendKind::kVoting:
      return std::make_unique<VotingBackend>(env);
    case BackendKind::kSketch:
      return std::make_unique<SketchBackend>(env);
    case BackendKind::kThreshold:
      break;
  }
  return std::make_unique<ThresholdBackend>(env);
}

}  // namespace corropt::detect
