#include "faults/injector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/time.h"

namespace corropt::faults {

FaultInjector::FaultInjector(telemetry::NetworkState& state)
    : state_(&state) {}

void FaultInjector::index(const Fault& fault) {
  // Ids only grow, so appending keeps every list in id order. A link
  // named twice by one fault is listed once; a link no earlier fault
  // lists joins the affected list under this fault.
  for (const DirectionEffect& effect : fault.effects) {
    by_direction_[effect.direction].push_back(fault.id);
  }
  for (std::size_t i = 0; i < fault.links.size(); ++i) {
    const LinkId link = fault.links[i];
    std::vector<FaultId>& ids = by_link_[link];
    if (ids.empty()) {
      affected_.push_back({fault.id, static_cast<std::uint32_t>(i), link});
    }
    if (ids.empty() || ids.back() != fault.id) ids.push_back(fault.id);
  }
  if (std::ranges::any_of(fault.effects, [](const DirectionEffect& effect) {
        return effect.tx_decay_db_per_day != 0.0;
      })) {
    decaying_.push_back(fault.id);
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
  // The links this fault listed first leave the affected list as one
  // block; those a later fault still lists re-enter under that fault.
  const auto owned = std::ranges::equal_range(affected_, id, {},
                                              &AffectedLink::owner);
  affected_.erase(owned.begin(), owned.end());
  for (LinkId link : fault.links) {
    const auto found = by_link_.find(link);
    if (found == by_link_.end()) continue;  // Listed twice; already gone.
    std::vector<FaultId>& ids = found->second;
    const bool was_owner = ids.front() == id;
    std::erase(ids, id);
    if (ids.empty()) {
      by_link_.erase(found);
    } else if (was_owner) {
      const FaultId owner = ids.front();
      const std::vector<LinkId>& links = active_.at(owner).links;
      const auto position = static_cast<std::uint32_t>(
          std::ranges::find(links, link) - links.begin());
      const auto key = [](const AffectedLink& entry) {
        return std::pair(entry.owner, entry.position);
      };
      affected_.insert(std::ranges::upper_bound(affected_,
                                                std::pair(owner, position),
                                                {}, key),
                       {owner, position, link});
    }
  }
  std::erase(decaying_, id);
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
  for (FaultId id : decaying_) {
    for (const DirectionEffect& effect : active_.at(id).effects) {
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

template <class Self, class Codec>
void FaultInjector::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('F', 'L', 'T', 'S'), 1, "fault injector");
  c.entries(self.active_, [&c](auto& id, auto& fault) {
    c.id(id);
    if constexpr (Codec::kReading) fault.id = id;
    c.u8(fault.cause);
    c.ids(fault.links);
    c.seq(fault.effects, [&c](auto& e) {
      c.id(e.direction);
      c.f64(e.extra_attenuation_db);
      c.f64(e.tx_power_delta_db);
      c.f64(e.tx_decay_db_per_day);
      c.f64(e.corruption_rate);
      c.check(std::isfinite(e.extra_attenuation_db) &&
                  std::isfinite(e.tx_power_delta_db) &&
                  std::isfinite(e.tx_decay_db_per_day),
              "fault effect attenuation, Tx delta or decay not finite");
      // A loss probability; a NaN fails both comparisons.
      c.check(e.corruption_rate >= 0.0 && e.corruption_rate <= 1.0,
              "fault effect corruption rate outside [0, 1]");
    });
    c.seq(fault.fixing_actions, [&c](auto& action) { c.u8(action); });
    c.i64(fault.onset);
  });
  c.u64(self.next_id_);
  c.i64(self.now_);
  if constexpr (Codec::kReading) {
    // The penalty accountant indexes per-link arrays by a fault's links,
    // and clear/advance rebuild its effects' directions: both unchecked.
    const topology::Topology& topo = self.state_->topo();
    for (const auto& [id, fault] : self.active_) {
      c.check(id.value() < self.next_id_,
              "active fault id at or past the next fault id");
      for (const LinkId link : fault.links) {
        c.check(link.index() < topo.link_count(),
                "fault names a link past the fabric");
      }
      for (const DirectionEffect& effect : fault.effects) {
        c.check(effect.direction.index() < topo.direction_count(),
                "fault effect names a direction past the fabric");
      }
    }
    // Id order is injection order, so the rebuilt per-direction,
    // per-link, affected and decaying lists match the live ones.
    self.by_direction_.clear();
    self.by_link_.clear();
    self.affected_.clear();
    self.decaying_.clear();
    for (const auto& [id, fault] : self.active_) self.index(fault);
    // The physical state is a function of the active faults and the
    // decay clock, so every direction is rebuilt from them: the faulted
    // ones fold their effects, the rest return to nominal. Finite
    // effects can still sum or decay past the range of a double; the
    // rate, one minus a product of survivals in [0, 1], cannot leave
    // [0, 1].
    const telemetry::NetworkState& state = *self.state_;
    for (std::size_t i = 0; i < topo.direction_count(); ++i) {
      const DirectionId dir(static_cast<DirectionId::underlying_type>(i));
      self.rebuild_direction(dir);
      c.check(std::isfinite(state.tx_power_dbm(dir)) &&
                  std::isfinite(state.direction(dir).extra_attenuation_db),
              "rebuilt Tx power or attenuation not finite");
    }
  }
}

void FaultInjector::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void FaultInjector::restore_from(common::snap::Reader& r) { walk(*this, r); }

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
