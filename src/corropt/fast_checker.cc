#include "corropt/fast_checker.h"

#include <cassert>
#include <cstdint>
#include <vector>

#include "obs/timer.h"

namespace corropt::core {

FastChecker::FastChecker(topology::Topology& topo, PathCounter& paths,
                         const CapacityConstraint& constraint)
    : topo_(&topo), paths_(&paths), constraint_(&constraint) {
  assert(&paths.topo() == &topo);
}

void FastChecker::set_sink(obs::Sink* sink) {
  sink_ = sink;
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_checks_ = obs::Counter();
    obs_disables_ = obs::Counter();
    obs_closure_switches_ = obs::Counter();
    obs_check_timer_ = obs::Histogram();
    return;
  }
  obs::MetricsRegistry& metrics = *sink->metrics;
  obs_checks_ = metrics.counter("fastcheck.checks");
  obs_disables_ = metrics.counter("fastcheck.disables");
  obs_closure_switches_ = metrics.counter("fastcheck.closure_switches");
  obs_check_timer_ = metrics.timer("fastcheck.check_s");
}

PathCounter::DisableCheck FastChecker::check(common::LinkId link,
                                             bool keep) {
  const PathCounter::DisableCheck result =
      paths_->check_disable(link, *constraint_, keep);
  obs_checks_.add();
  obs_closure_switches_.add(result.closure_switches);
  return result;
}

bool FastChecker::can_disable(common::LinkId link) {
  if (!topo_->is_enabled(link)) return true;
  const obs::ScopedTimer timer(obs_check_timer_);
  return check(link, /*keep=*/false).feasible;
}

bool FastChecker::can_disable(
    common::LinkId link, std::span<const common::LinkId> also_off) const {
  if (!topo_->is_enabled(link)) return true;
  LinkMask off(topo_->link_count());
  off.set(link.index());
  for (common::LinkId extra : also_off) off.set(extra.index());
  const std::vector<std::uint64_t> counts = paths_->up_paths(&off);
  return paths_->feasible(counts, *constraint_);
}

bool FastChecker::try_disable(common::LinkId link) {
  if (!topo_->is_enabled(link)) return true;
  const obs::ScopedTimer timer(obs_check_timer_);
  if (!check(link, /*keep=*/true).feasible) return false;
  obs_disables_.add();
  // The shared counts kept the closure's new counts and cleared the
  // link's bit, so the next read does not redo it. The optimizer still
  // sees the flip.
  topo_->set_enabled(link, false);
  return true;
}

}  // namespace corropt::core
