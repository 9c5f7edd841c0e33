#include "corropt/capacity.h"

#include <cassert>

namespace corropt::core {

CapacityConstraint::CapacityConstraint(double uniform_fraction)
    : default_fraction_(uniform_fraction) {
  assert(uniform_fraction >= 0.0 && uniform_fraction <= 1.0);
}

void CapacityConstraint::set_tor_fraction(SwitchId tor, double fraction) {
  assert(fraction >= 0.0 && fraction <= 1.0);
  if (tor.index() >= fractions_.size()) {
    fractions_.resize(tor.index() + 1, default_fraction_);
  }
  fractions_[tor.index()] = fraction;
  ++version_;
}

}  // namespace corropt::core
