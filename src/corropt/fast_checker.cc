#include "corropt/fast_checker.h"

#include <algorithm>
#include <cassert>

#include "obs/timer.h"

namespace corropt::core {

namespace {

// Layout of the FCHK checkpoint section; version 3 stores only the mask
// words of the last decision (version 2 also stored the counts).
constexpr std::uint16_t kSnapshotVersion = 3;

}  // namespace

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
    obs_cache_refreshes_ = obs::Counter();
    obs_closure_switches_ = obs::Counter();
    obs_check_timer_ = obs::Histogram();
    return;
  }
  obs::MetricsRegistry& metrics = *sink->metrics;
  obs_checks_ = metrics.counter("fastcheck.checks");
  obs_disables_ = metrics.counter("fastcheck.disables");
  obs_cache_refreshes_ = metrics.counter("fastcheck.cache_refreshes");
  obs_closure_switches_ = metrics.counter("fastcheck.closure_switches");
  obs_check_timer_ = metrics.timer("fastcheck.check_s");
}

PathCounter::DisableCheck FastChecker::check(common::LinkId link,
                                             bool keep) {
  const std::span<const std::uint64_t> mask = topo_->enabled_mask().words();
  if (!std::ranges::equal(seen_, mask)) {
    seen_.assign(mask.begin(), mask.end());
    obs_cache_refreshes_.add();
  }
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
  // link's bit, so neither the next read nor this checker's next
  // decision redoes it. The optimizer still sees the flip.
  topo_->set_enabled(link, false);
  seen_[link.index() / 64] &= ~(std::uint64_t{1} << (link.index() % 64));
  return true;
}

void FastChecker::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('F', 'C', 'H', 'K'), kSnapshotVersion);
  w.u64(seen_.size());
  for (std::uint64_t word : seen_) w.u64(word);
}

void FastChecker::restore_from(common::snap::Reader& r) {
  if (r.expect_section(common::snap::tag('F', 'C', 'H', 'K')) !=
      kSnapshotVersion) {
    common::snap::fail("fast checker section version mismatch");
  }
  // Empty (no decision yet) or sized for this topology; anything else
  // belongs to another fabric.
  const std::size_t n = r.length();
  if (n != 0 && n != topo_->enabled_mask().words().size()) {
    common::snap::fail("fast checker mask does not match the topology");
  }
  seen_.resize(n);
  for (std::uint64_t& word : seen_) word = r.u64();
}

}  // namespace corropt::core
