#include "corropt/switch_local.h"

#include <cassert>

namespace corropt::core {

SwitchLocalChecker::SwitchLocalChecker(topology::Topology& topo, double sc)
    : topo_(&topo), sc_(sc) {
  assert(sc >= 0.0 && sc <= 1.0);
}

int SwitchLocalChecker::disable_budget(common::SwitchId sw) const {
  const auto m = static_cast<double>(topo_->switch_at(sw).uplinks.size());
  // floor(m * (1 - sc)) computed via the kept count to avoid the
  // floating-point hazard of 1 - sc (e.g. m=5, sc=0.6 must yield 2).
  const int keep = static_cast<int>(std::ceil(m * sc_ - 1e-9));
  return static_cast<int>(m) - keep;
}

bool SwitchLocalChecker::can_disable(common::LinkId link) const {
  if (!topo_->is_enabled(link)) return true;
  const common::SwitchId sw = topo_->link_at(link).lower;
  int disabled = 0;
  for (common::LinkId uplink : topo_->switch_at(sw).uplinks) {
    if (!topo_->is_enabled(uplink)) ++disabled;
  }
  return disabled < disable_budget(sw);
}

bool SwitchLocalChecker::try_disable(common::LinkId link) {
  if (!topo_->is_enabled(link)) return true;
  if (!can_disable(link)) return false;
  topo_->set_enabled(link, false);
  return true;
}

}  // namespace corropt::core
