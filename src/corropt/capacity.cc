#include "corropt/capacity.h"

#include <cassert>

namespace corropt::core {

CapacityConstraint::CapacityConstraint(double uniform_fraction)
    : default_fraction_(uniform_fraction) {
  assert(uniform_fraction >= 0.0 && uniform_fraction <= 1.0);
}

void CapacityConstraint::set_tor_fraction(SwitchId tor, double fraction) {
  assert(fraction >= 0.0 && fraction <= 1.0);
  overrides_[tor] = fraction;
  ++version_;
}

double CapacityConstraint::override_or_default(SwitchId tor) const {
  const auto it = overrides_.find(tor);
  return it == overrides_.end() ? default_fraction_ : it->second;
}

}  // namespace corropt::core
