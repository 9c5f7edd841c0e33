#include "corropt/penalty.h"

#include <cassert>
#include <cmath>

namespace corropt::core {

PenaltyFunction PenaltyFunction::linear() {
  return PenaltyFunction(Kind::kLinear);
}

PenaltyFunction PenaltyFunction::step() {
  return PenaltyFunction(Kind::kStep);
}

PenaltyFunction PenaltyFunction::tcp_throughput() {
  return PenaltyFunction(Kind::kTcp);
}

double PenaltyFunction::operator()(double loss_rate) const {
  assert(loss_rate >= 0.0);
  switch (kind_) {
    case Kind::kLinear:
      return loss_rate;
    case Kind::kStep:
      return loss_rate >= kStepThreshold ? 1.0 : 0.0;
    case Kind::kTcp: {
      if (loss_rate == 0.0) return 0.0;
      const double ratio = std::sqrt(loss_rate / kTcpHalfLossRate);
      return 1.0 - 1.0 / (1.0 + ratio);
    }
  }
  return 0.0;
}

}  // namespace corropt::core
