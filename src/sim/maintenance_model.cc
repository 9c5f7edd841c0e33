#include "sim/maintenance_model.h"

#include <algorithm>

#include "obs/journal.h"

namespace corropt::sim {

MaintenanceModel::MaintenanceModel(SimContext& ctx) : ctx_(ctx) {
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
  event.due = std::max(now, completion - kWindow);
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
      static_cast<double>(kWindow);
  if (!taken.empty() &&
      !ctx_.paths.feasible(ctx_.paths.live_counts(),
                           ctx_.controller.constraint())) {
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

template <class Self, class Codec>
void MaintenanceModel::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('M', 'N', 'T', 'M'), 1, "maintenance model");
  // end() re-enables the peers through Topology::set_enabled, which
  // does not range-check them.
  const std::size_t links = self.ctx_.topo.link_count();
  c.entries(self.collateral_down_, [&c, links](auto& link, auto& taken) {
    c.id(link);
    c.check(link.index() < links, "maintained link past the fabric");
    c.ids(taken);
    for (const common::LinkId peer : taken) {
      c.check(peer.index() < links, "maintained peer past the fabric");
    }
  });
}

void MaintenanceModel::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void MaintenanceModel::restore_from(common::snap::Reader& r) {
  walk(*this, r);
}

}  // namespace corropt::sim
