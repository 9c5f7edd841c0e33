#include "faults/injector.h"

#include <algorithm>
#include <cassert>

#include "common/time.h"

namespace corropt::faults {

FaultInjector::FaultInjector(telemetry::NetworkState& state)
    : state_(&state) {}

void FaultInjector::index(const Fault& fault) {
  // Ids only grow, so appending keeps every list in id order. A link
  // named twice by one fault is listed once.
  for (const DirectionEffect& effect : fault.effects) {
    by_direction_[effect.direction].push_back(fault.id);
  }
  for (LinkId link : fault.links) {
    std::vector<FaultId>& ids = by_link_[link];
    if (ids.empty() || ids.back() != fault.id) ids.push_back(fault.id);
  }
}

FaultId FaultInjector::inject(Fault fault) {
  const FaultId id(next_id_++);
  fault.id = id;
  index(fault);
  const auto [it, inserted] = active_.emplace(id, std::move(fault));
  assert(inserted);
  for (const DirectionEffect& effect : it->second.effects) {
    rebuild_direction(effect.direction);
  }
  return id;
}

void FaultInjector::clear(FaultId id) {
  const auto it = active_.find(id);
  if (it == active_.end()) return;
  const Fault fault = std::move(it->second);
  active_.erase(it);
  for (LinkId link : fault.links) {
    const auto found = by_link_.find(link);
    if (found == by_link_.end()) continue;  // Listed twice; already gone.
    std::erase(found->second, id);
    if (found->second.empty()) by_link_.erase(found);
  }
  for (const DirectionEffect& effect : fault.effects) {
    auto& ids = by_direction_[effect.direction];
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) by_direction_.erase(effect.direction);
    rebuild_direction(effect.direction);
  }
}

bool FaultInjector::try_repair(FaultId id, RepairAction action) {
  const auto it = active_.find(id);
  if (it == active_.end()) return true;  // Already gone; repair succeeds.
  if (!it->second.fixed_by(action)) return false;
  clear(id);
  return true;
}

void FaultInjector::advance(common::SimTime now) {
  assert(now >= now_);
  now_ = now;
  for (const auto& [id, fault] : active_) {
    for (const DirectionEffect& effect : fault.effects) {
      if (effect.tx_decay_db_per_day != 0.0) {
        rebuild_direction(effect.direction);
      }
    }
  }
}

const Fault* FaultInjector::fault(FaultId id) const {
  const auto it = active_.find(id);
  return it == active_.end() ? nullptr : &it->second;
}

std::span<const FaultId> FaultInjector::faults_on_link(LinkId link) const {
  const auto it = by_link_.find(link);
  if (it == by_link_.end()) return {};
  return it->second;
}

void FaultInjector::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('F', 'L', 'T', 'S'), 1);
  w.u64(active_.size());
  for (const auto& [id, fault] : active_) {
    w.u32(fault.id.value());
    w.u8(static_cast<std::uint8_t>(fault.cause));
    w.u64(fault.links.size());
    for (LinkId link : fault.links) w.u32(link.value());
    w.u64(fault.effects.size());
    for (const DirectionEffect& e : fault.effects) {
      w.u32(e.direction.value());
      w.f64(e.extra_attenuation_db);
      w.f64(e.tx_power_delta_db);
      w.f64(e.tx_decay_db_per_day);
      w.f64(e.corruption_rate);
    }
    w.u64(fault.fixing_actions.size());
    for (RepairAction action : fault.fixing_actions) {
      w.u8(static_cast<std::uint8_t>(action));
    }
    w.i64(fault.onset);
  }
  w.u64(next_id_);
  w.i64(now_);
}

void FaultInjector::restore_from(common::snap::Reader& r) {
  r.expect_section(common::snap::tag('F', 'L', 'T', 'S'));
  active_.clear();
  by_direction_.clear();
  by_link_.clear();
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    Fault fault;
    fault.id = FaultId(r.u32());
    fault.cause = static_cast<RootCause>(r.u8());
    fault.links.resize(r.length());
    for (LinkId& link : fault.links) link = LinkId(r.u32());
    fault.effects.resize(r.length());
    for (DirectionEffect& e : fault.effects) {
      e.direction = DirectionId(r.u32());
      e.extra_attenuation_db = r.f64();
      e.tx_power_delta_db = r.f64();
      e.tx_decay_db_per_day = r.f64();
      e.corruption_rate = r.f64();
    }
    fault.fixing_actions.resize(r.length());
    for (RepairAction& action : fault.fixing_actions) {
      action = static_cast<RepairAction>(r.u8());
    }
    fault.onset = r.i64();
    // Faults arrive in id order, which is injection order, so the
    // rebuilt per-direction and per-link lists match the live ones.
    index(fault);
    active_.emplace(fault.id, std::move(fault));
  }
  next_id_ = static_cast<common::FaultId::underlying_type>(r.u64());
  now_ = r.i64();
  // NetworkState restores the physical arrays bit-exactly itself; no
  // rebuild_direction here (a recompute could round differently).
}

void FaultInjector::rebuild_direction(DirectionId dir) {
  auto d = state_->direction(dir);
  d.tx_power_dbm = state_->tech().nominal_tx_dbm;
  d.extra_attenuation_db = 0.0;
  double survival = 1.0;  // P(packet survives every active fault).

  const auto it = by_direction_.find(dir);
  if (it != by_direction_.end()) {
    for (FaultId id : it->second) {
      const Fault& fault = active_.at(id);
      for (const DirectionEffect& effect : fault.effects) {
        if (effect.direction != dir) continue;
        d.extra_attenuation_db += effect.extra_attenuation_db;
        double tx_delta = effect.tx_power_delta_db;
        if (effect.tx_decay_db_per_day != 0.0) {
          tx_delta -= effect.tx_decay_db_per_day *
                      common::to_days(now_ - fault.onset);
        }
        d.tx_power_dbm += tx_delta;
        survival *= 1.0 - effect.corruption_rate;
      }
    }
  }
  d.corruption_rate = 1.0 - survival;
}

}  // namespace corropt::faults
