#include "corropt/controller.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/logging.h"

namespace corropt::core {

namespace {

// Layout of the CTRL checkpoint section; version 2 dropped the audit log.
constexpr std::uint16_t kSnapshotVersion = 2;

}  // namespace

Controller::Controller(topology::Topology& topo, ControllerConfig config,
                       PenaltyFunction penalty)
    : topo_(&topo),
      config_(config),
      penalty_(penalty),
      constraint_(config.capacity_fraction),
      fast_checker_(topo, constraint_),
      switch_local_(topo, switch_local_threshold(config.capacity_fraction,
                                                 std::max(1, topo.top_level()))),
      optimizer_(topo, constraint_, penalty, config.optimizer) {
  if (config_.incremental) {
    optimizer_.set_incremental(true);
    fast_checker_.set_incremental(true);
  }
}

void Controller::note_state_changed(
    std::span<const common::LinkId> links) {
  if (!config_.incremental) return;
  optimizer_.note_links_changed(links);
  fast_checker_.note_links_changed(links);
}

void Controller::set_sink(obs::Sink* sink) {
  sink_ = sink;
  fast_checker_.set_sink(sink);
  optimizer_.set_sink(sink);
  if (sink == nullptr || sink->metrics == nullptr) {
    obs_reports_ = obs::Counter();
    obs_disabled_arrival_ = obs::Counter();
    obs_disabled_activation_ = obs::Counter();
    obs_refused_capacity_ = obs::Counter();
    obs_tickets_ = obs::Counter();
    obs_optimizer_runs_ = obs::Counter();
    return;
  }
  obs::MetricsRegistry& metrics = *sink->metrics;
  obs_reports_ = metrics.counter("controller.corruption_reports");
  obs_disabled_arrival_ = metrics.counter("controller.disabled_on_arrival");
  obs_disabled_activation_ =
      metrics.counter("controller.disabled_on_activation");
  obs_refused_capacity_ = metrics.counter("controller.refused_capacity");
  obs_tickets_ = metrics.counter("controller.tickets_issued");
  obs_optimizer_runs_ = metrics.counter("controller.optimizer_runs");
}

void Controller::emit_link(obs::EventKind kind, obs::EventReason reason,
                           common::LinkId link, double value) {
  if (sink_ == nullptr) return;
  obs::Event event;
  event.kind = kind;
  event.reason = reason;
  event.link = link;
  event.sw = topo_->link_at(link).lower;
  event.value = value;
  sink_->emit(event);
}

void Controller::issue_ticket(common::LinkId link) {
  ++stats_.tickets_issued;
  obs_tickets_.add();
  if (ticket_callback_) ticket_callback_(link);
}

bool Controller::arrival_disable(common::LinkId link) {
  switch (config_.mode) {
    case CheckerMode::kSwitchLocal:
      if (switch_local_.try_disable(link)) {
        note_state_changed({&link, 1});
        return true;
      }
      return false;
    case CheckerMode::kFastCheckerOnly:
    case CheckerMode::kCorrOpt: {
      if (config_.account_collateral_repair) {
        // Conservative: capacity must hold even while the link's healthy
        // breakout siblings are down for the repair.
        std::vector<common::LinkId> peers = topo_->breakout_peers(link);
        peers.erase(std::remove(peers.begin(), peers.end(), link),
                    peers.end());
        if (!topo_->is_enabled(link) ||
            !fast_checker_.can_disable(link, peers)) {
          return topo_->is_enabled(link) ? false : true;
        }
        topo_->set_enabled(link, false);
        note_state_changed({&link, 1});
        return true;
      }
      if (fast_checker_.try_disable(link)) {
        // The fast checker's own cache self-maintained; the note reaches
        // the optimizer's pending list.
        note_state_changed({&link, 1});
        return true;
      }
      return false;
    }
  }
  return false;
}

bool Controller::on_corruption_detected(common::LinkId link,
                                        double loss_rate) {
  ++stats_.corruption_reports;
  obs_reports_.add();
  corruption_.mark(link, loss_rate);
  emit_link(obs::EventKind::kCorruptionDetected, obs::EventReason::kNone,
            link, loss_rate);
  if (!topo_->is_enabled(link)) {  // Already off (e.g. peer).
    emit_link(obs::EventKind::kFastCheckVerdict,
              obs::EventReason::kAlreadyDisabled, link, loss_rate);
    return false;
  }
  if (arrival_disable(link)) {
    ++stats_.disabled_on_arrival;
    obs_disabled_arrival_.add();
    CORROPT_LOG_INFO << "controller: disabled corrupting link "
                     << link.value() << " (loss rate " << loss_rate << ")";
    emit_link(obs::EventKind::kFastCheckVerdict,
              obs::EventReason::kDisabledVerdict, link, loss_rate);
    emit_link(obs::EventKind::kLinkDisabled, obs::EventReason::kArrival,
              link, loss_rate);
    issue_ticket(link);
    return true;
  }
  CORROPT_LOG_INFO << "controller: corrupting link " << link.value()
                   << " kept active: capacity constraint would be violated";
  obs_refused_capacity_.add();
  emit_link(obs::EventKind::kFastCheckVerdict,
            obs::EventReason::kRefusedCapacity, link, loss_rate);
  return false;
}

void Controller::recheck_all_active() {
  // Re-examine active corrupting links in detection order, mirroring the
  // production systems the paper describes: the recheck is a plain
  // re-run over the waiting list, with no awareness of loss rates. The
  // optimizer's penalty-aware subset selection is exactly what this
  // baseline lacks (Figure 18).
  const std::vector<common::LinkId> active =
      corruption_.active_in_detection_order(*topo_);
  for (common::LinkId link : active) {
    if (arrival_disable(link)) {
      ++stats_.disabled_on_activation;
      obs_disabled_activation_.add();
      emit_link(obs::EventKind::kLinkDisabled, obs::EventReason::kActivation,
                link, corruption_.rate(link));
      issue_ticket(link);
    }
  }
}

void Controller::on_link_repaired(common::LinkId link) {
  corruption_.unmark(link);
  topo_->set_enabled(link, true);
  note_state_changed({&link, 1});
  emit_link(obs::EventKind::kLinkEnabled, obs::EventReason::kNone, link, 0.0);
  switch (config_.mode) {
    case CheckerMode::kSwitchLocal:
    case CheckerMode::kFastCheckerOnly:
      recheck_all_active();
      break;
    case CheckerMode::kCorrOpt: {
      ++stats_.optimizer_runs;
      obs_optimizer_runs_.add();
      // Debug equivalence check: snapshot the pre-run state so the same
      // event can be replayed from scratch below.
      std::unique_ptr<topology::Topology> cold_topo;
      if (config_.verify_incremental) {
        cold_topo = std::make_unique<topology::Topology>(*topo_);
      }
      const OptimizerResult result = optimizer_.run(corruption_);
      if (cold_topo != nullptr) {
        Optimizer cold(*cold_topo, constraint_, penalty_, config_.optimizer);
        const OptimizerResult cold_result = cold.run(corruption_);
        if (cold_result.disabled != result.disabled ||
            cold_result.disabled_penalty != result.disabled_penalty ||
            cold_result.remaining_penalty != result.remaining_penalty ||
            !(cold_topo->enabled_mask() == topo_->enabled_mask())) {
          throw std::logic_error(
              "controller: incremental optimizer diverged from cold solve");
        }
      }
      // The optimizer already noted its own disables internally; this
      // reaches the fast checker's cached counts.
      note_state_changed(result.disabled);
      stats_.disabled_on_activation += result.disabled.size();
      obs_disabled_activation_.add(result.disabled.size());
      if (sink_ != nullptr) {
        obs::Event event;
        event.kind = obs::EventKind::kOptimizerRun;
        event.value = result.disabled_penalty;
        event.value2 = result.remaining_penalty;
        event.detail0 = result.disabled.size();
        event.detail1 = result.subsets_evaluated;
        sink_->emit(event);
      }
      for (common::LinkId disabled : result.disabled) {
        emit_link(obs::EventKind::kLinkDisabled,
                  obs::EventReason::kActivation, disabled,
                  corruption_.rate(disabled));
        issue_ticket(disabled);
      }
      break;
    }
  }
}

void Controller::on_corruption_cleared(common::LinkId link) {
  emit_link(obs::EventKind::kCorruptionCleared, obs::EventReason::kNone, link,
            corruption_.rate(link));
  corruption_.unmark(link);
}

void Controller::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('C', 'T', 'R', 'L'), kSnapshotVersion);
  w.u64(stats_.corruption_reports);
  w.u64(stats_.disabled_on_arrival);
  w.u64(stats_.disabled_on_activation);
  w.u64(stats_.tickets_issued);
  w.u64(stats_.optimizer_runs);
  corruption_.snapshot_to(w);
  fast_checker_.snapshot_to(w);
}

void Controller::restore_from(common::snap::Reader& r) {
  if (r.expect_section(common::snap::tag('C', 'T', 'R', 'L')) !=
      kSnapshotVersion) {
    common::snap::fail("controller section version mismatch");
  }
  stats_.corruption_reports = r.u64();
  stats_.disabled_on_arrival = r.u64();
  stats_.disabled_on_activation = r.u64();
  stats_.tickets_issued = r.u64();
  stats_.optimizer_runs = r.u64();
  corruption_.restore_from(r);
  fast_checker_.restore_from(r);
  // The optimizer's derived caches are keyed by the topology's state
  // version; a restore can rewind the counter to a value already seen
  // with a different enabled mask, so a stale hit here would corrupt the
  // next run. Dropping them is free of observable effects: re-derivation
  // is deterministic and touches no metrics.
  optimizer_.drop_derived_state();
}

}  // namespace corropt::core
