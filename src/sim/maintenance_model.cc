#include "sim/maintenance_model.h"

#include <algorithm>

#include "obs/journal.h"

namespace corropt::sim {

MaintenanceModel::MaintenanceModel(SimContext& ctx)
    : ctx_(ctx), constraint_(ctx.config.capacity_fraction) {
  for (const auto& [tor, fraction] : ctx_.config.tor_overrides) {
    constraint_.set_tor_fraction(tor, fraction);
  }
  ctx_.queue.set_handler(EventType::kMaintenanceStart,
                         [this](const Event& event) { start(event.link); });
}

void MaintenanceModel::schedule(common::LinkId link, int attempt, SimTime now,
                                SimTime completion) {
  if (!ctx_.config.model_collateral_maintenance ||
      ctx_.topo.breakout_peers(link).size() <= 1) {
    return;
  }
  Event event;
  event.due = std::max(now, completion - ctx_.config.maintenance_window);
  event.type = EventType::kMaintenanceStart;
  event.link = link;
  event.attempt = attempt;
  ctx_.queue.schedule(event);
}

void MaintenanceModel::start(common::LinkId link) {
  SimulationMetrics& metrics = *ctx_.metrics;
  ++metrics.maintenance_windows;
  std::vector<common::LinkId>& taken = collateral_down_[link];
  for (common::LinkId peer : ctx_.topo.breakout_peers(link)) {
    if (peer == link || !ctx_.topo.is_enabled(peer)) continue;
    ctx_.topo.set_enabled(peer, false);
    taken.push_back(peer);
  }
  metrics.collateral_link_seconds +=
      static_cast<double>(taken.size()) *
      static_cast<double>(ctx_.config.maintenance_window);
  if (!taken.empty() && !ctx_.paths.feasible(ctx_.up_paths(), constraint_)) {
    ++metrics.maintenance_capacity_violations;
  }
  obs::Event event;
  event.kind = obs::EventKind::kMaintenanceStart;
  event.link = link;
  event.detail0 = taken.size();
  ctx_.emit(event);
}

void MaintenanceModel::end(common::LinkId link) {
  const auto it = collateral_down_.find(link);
  if (it == collateral_down_.end()) return;
  obs::Event event;
  event.kind = obs::EventKind::kMaintenanceEnd;
  event.link = link;
  event.detail0 = it->second.size();
  ctx_.emit(event);
  for (common::LinkId peer : it->second) {
    ctx_.topo.set_enabled(peer, true);
  }
  collateral_down_.erase(it);
}

void MaintenanceModel::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('M', 'N', 'T', 'M'), 1);
  std::vector<common::LinkId> keys;
  keys.reserve(collateral_down_.size());
  for (const auto& [link, taken] : collateral_down_) keys.push_back(link);
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (common::LinkId link : keys) {
    w.u32(link.value());
    const std::vector<common::LinkId>& taken = collateral_down_.at(link);
    w.u64(taken.size());
    for (common::LinkId peer : taken) w.u32(peer.value());
  }
}

void MaintenanceModel::restore_from(common::snap::Reader& r) {
  r.expect_section(common::snap::tag('M', 'N', 'T', 'M'));
  collateral_down_.clear();
  const std::uint64_t windows = r.u64();
  for (std::uint64_t i = 0; i < windows; ++i) {
    const common::LinkId link(r.u32());
    std::vector<common::LinkId>& taken = collateral_down_[link];
    taken.resize(r.length());
    for (common::LinkId& peer : taken) peer = common::LinkId(r.u32());
  }
}

}  // namespace corropt::sim
