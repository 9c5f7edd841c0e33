// Reference readings of a fault that the library itself never needs.
#pragma once

#include "faults/fault.h"

namespace corropt::testing {

// The highest corruption rate the fault induces on any direction.
inline double peak_corruption_rate(const faults::Fault& fault) {
  double peak = 0.0;
  for (const faults::DirectionEffect& effect : fault.effects) {
    if (effect.corruption_rate > peak) peak = effect.corruption_rate;
  }
  return peak;
}

}  // namespace corropt::testing
