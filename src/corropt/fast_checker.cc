#include "corropt/fast_checker.h"

#include <algorithm>
#include <cassert>

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
  in_closure_.assign(topo.switch_count(), 0);
  slot_.assign(topo.switch_count(), -1);
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

const std::vector<std::uint64_t>& FastChecker::sync() {
  const std::span<const std::uint64_t> mask = topo_->enabled_mask().words();
  if (!std::ranges::equal(seen_, mask)) {
    seen_.assign(mask.begin(), mask.end());
    obs_cache_refreshes_.add();
  }
  return paths_->live_counts();
}

FastChecker::ClosureResult FastChecker::evaluate_closure(
    common::LinkId link, const std::vector<std::uint64_t>& counts) {
  // Downward closure of the link's lower endpoint: exactly the switches
  // whose up-path counts the removal can change.
  closure_.clear();
  const common::SwitchId root = topo_->link_at(link).lower;
  closure_.push_back(root);
  in_closure_[root.index()] = 1;
  for (std::size_t i = 0; i < closure_.size(); ++i) {
    for (common::LinkId downlink : topo_->switch_at(closure_[i]).downlinks) {
      if (!topo_->is_enabled(downlink)) continue;
      const common::SwitchId lower = topo_->link_at(downlink).lower;
      if (in_closure_[lower.index()] == 0) {
        in_closure_[lower.index()] = 1;
        closure_.push_back(lower);
      }
    }
  }
  // BFS discovery order is not level order; sort by level descending so
  // every switch is recomputed after the uppers it reads from.
  std::sort(closure_.begin(), closure_.end(),
            [this](common::SwitchId a, common::SwitchId b) {
              return topo_->switch_at(a).level > topo_->switch_at(b).level;
            });

  ClosureResult result;
  result.updates.reserve(closure_.size());
  // New counts for closure members (dense slots); switches outside the
  // closure read from the cache — their counts cannot change.
  std::vector<std::uint64_t> new_counts(closure_.size(), 0);
  for (std::size_t i = 0; i < closure_.size(); ++i) {
    slot_[closure_[i].index()] = static_cast<std::int32_t>(i);
  }

  for (std::size_t i = 0; i < closure_.size(); ++i) {
    const topology::Switch& sw = topo_->switch_at(closure_[i]);
    std::uint64_t total = 0;
    for (common::LinkId uplink : sw.uplinks) {
      if (uplink == link || !topo_->is_enabled(uplink)) continue;
      const common::SwitchId upper = topo_->link_at(uplink).upper;
      const std::int32_t upper_slot = slot_[upper.index()];
      total += upper_slot >= 0
                   ? new_counts[static_cast<std::size_t>(upper_slot)]
                   : counts[upper.index()];
    }
    new_counts[i] = total;
    result.updates.emplace_back(closure_[i], total);
    if (sw.level == 0 &&
        constraint_->below_min(sw.id, paths_->design_paths()[sw.id.index()],
                               total)) {
      result.feasible = false;
    }
  }

  // Clear scratch flags.
  for (common::SwitchId id : closure_) {
    in_closure_[id.index()] = 0;
    slot_[id.index()] = -1;
  }
  return result;
}

bool FastChecker::can_disable(common::LinkId link) {
  if (!topo_->is_enabled(link)) return true;
  const obs::ScopedTimer timer(obs_check_timer_,
                               sink_ != nullptr ? sink_->trace : nullptr,
                               "fastcheck.can_disable");
  const ClosureResult result = evaluate_closure(link, sync());
  obs_checks_.add();
  obs_closure_switches_.add(result.updates.size());
  return result.feasible;
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
  const obs::ScopedTimer timer(obs_check_timer_,
                               sink_ != nullptr ? sink_->trace : nullptr,
                               "fastcheck.try_disable");
  const ClosureResult result = evaluate_closure(link, sync());
  obs_checks_.add();
  obs_closure_switches_.add(result.updates.size());
  if (!result.feasible) return false;
  obs_disables_.add();
  topo_->set_enabled(link, false);
  // Fold the closure's new counts into the shared counts and the flipped
  // bit into both masks, so neither the next read nor this checker's
  // next decision redoes it. The optimizer still sees the flip.
  paths_->fold_disable(link, result.updates);
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
