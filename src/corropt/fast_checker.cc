#include "corropt/fast_checker.h"

#include <algorithm>

namespace corropt::core {

namespace {

// Layout of the FCHK checkpoint section; version 2 keys the counts on
// the enabled mask instead of the state version.
constexpr std::uint16_t kSnapshotVersion = 2;

}  // namespace

FastChecker::FastChecker(topology::Topology& topo,
                         const CapacityConstraint& constraint)
    : topo_(&topo), constraint_(&constraint), paths_(topo) {
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

void FastChecker::sync() {
  const bool cold = live_.counts.empty();
  paths_.sync_live_counts(live_);
  if (cold || !live_.changed.empty()) obs_cache_refreshes_.add();
}

FastChecker::ClosureResult FastChecker::evaluate_closure(
    common::LinkId link) {
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
                   : live_.counts[upper.index()];
    }
    new_counts[i] = total;
    result.updates.emplace_back(closure_[i], total);
    if (sw.level == 0 &&
        constraint_->below_min(sw.id, paths_.design_paths()[sw.id.index()],
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
  sync();
  const ClosureResult result = evaluate_closure(link);
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
  const std::vector<std::uint64_t> counts = paths_.up_paths(&off);
  return paths_.feasible(counts, *constraint_);
}

bool FastChecker::try_disable(common::LinkId link) {
  if (!topo_->is_enabled(link)) return true;
  const obs::ScopedTimer timer(obs_check_timer_,
                               sink_ != nullptr ? sink_->trace : nullptr,
                               "fastcheck.try_disable");
  sync();
  const ClosureResult result = evaluate_closure(link);
  obs_checks_.add();
  obs_closure_switches_.add(result.updates.size());
  if (!result.feasible) return false;
  obs_disables_.add();
  topo_->set_enabled(link, false);
  // Fold the closure's new counts and the flipped bit into the live
  // counts so the next sync finds nothing to redo.
  for (const auto& [sw, value] : result.updates) {
    live_.counts[sw.index()] = value;
  }
  live_.seen[link.index() / 64] &= ~(std::uint64_t{1} << (link.index() % 64));
  return true;
}

void FastChecker::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('F', 'C', 'H', 'K'), kSnapshotVersion);
  w.u64(live_.seen.size());
  for (std::uint64_t word : live_.seen) w.u64(word);
  w.u64(live_.counts.size());
  for (std::uint64_t count : live_.counts) w.u64(count);
}

void FastChecker::restore_from(common::snap::Reader& r) {
  if (r.expect_section(common::snap::tag('F', 'C', 'H', 'K')) !=
      kSnapshotVersion) {
    common::snap::fail("fast checker section version mismatch");
  }
  // Each vector is empty (a cache never filled) or sized for this
  // topology; anything else belongs to another fabric.
  auto read = [&r](std::vector<std::uint64_t>& out, std::size_t expected) {
    const std::size_t n = r.length();
    if (n != 0 && n != expected) {
      common::snap::fail("fast checker counts do not match the topology");
    }
    out.resize(n);
    for (std::uint64_t& value : out) value = r.u64();
  };
  read(live_.seen, topo_->enabled_mask().words().size());
  read(live_.counts, topo_->switch_count());
}

}  // namespace corropt::core
