#include "sim/repair_pipeline.h"

#include <cassert>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.h"

namespace corropt::sim {

RepairPipeline::RepairPipeline(SimContext& ctx, DetectionPipeline& detection,
                               MaintenanceModel& maintenance)
    : ctx_(ctx),
      detection_(detection),
      maintenance_(maintenance),
      recommender_(ctx.state),
      queue_(ctx.config.queue),
      technician_(ctx.config.technician_follow_probability) {
  attempts_.assign(ctx_.topo.link_count(), 0);
  reseated_.assign(ctx_.topo.link_count(), 0);
  ctx_.queue.set_handler(EventType::kRepair,
                         [this](const Event& event) { handle_repair(event); });
  ctx_.queue.set_handler(
      EventType::kRedetect,
      [this](const Event& event) { handle_redetect(event); });
}

void RepairPipeline::open_ticket(common::LinkId link, SimTime now) {
  const int attempt = ++attempts_[link.index()];
  std::optional<faults::RepairAction> recommendation;
  std::string rationale;
  if (ctx_.config.issue_recommendations) {
    const core::Recommendation rec =
        recommender_.recommend_link(link, reseated_[link.index()] != 0);
    recommendation = rec.action;
    rationale = rec.rationale;
  }
  const common::TicketId ticket =
      queue_.open(link, now, attempt, recommendation, std::move(rationale));
  const SimTime completion = queue_.ticket(ticket).scheduled_completion;
  ticket_resolution_total_s_ += static_cast<double>(completion - now);
  ++ctx_.metrics->tickets_opened;
  {
    obs::Event event;
    event.kind = obs::EventKind::kTicketOpened;
    event.link = link;
    event.ticket = ticket;
    event.detail0 = static_cast<std::uint64_t>(attempt);
    event.detail1 = recommendation.has_value()
                        ? static_cast<std::uint64_t>(*recommendation) + 1
                        : 0;
    ctx_.emit(event);
  }
  Event repair;
  repair.due = completion;
  repair.type = EventType::kRepair;
  repair.link = link;
  repair.ticket = ticket;
  repair.attempt = attempt;
  ctx_.queue.schedule(repair);
  maintenance_.schedule(link, attempt, now, completion);
}

bool RepairPipeline::attempt_repair(const Event& event) {
  // A copy: clearing a fault edits the injector's per-link index.
  const std::span<const common::FaultId> on_link =
      ctx_.injector.faults_on_link(event.link);
  const std::vector<common::FaultId> faults(on_link.begin(), on_link.end());
  if (faults.empty()) return true;  // Fixed via a shared-component peer.

  switch (ctx_.config.repair_model) {
    case RepairModelKind::kOutcome: {
      if (!ctx_.config.outcome.attempt_succeeds(event.attempt, ctx_.rng)) {
        return false;
      }
      // The abstract model clears every fault on the link outright.
      for (common::FaultId fault : faults) ctx_.injector.clear(fault);
      return true;
    }
    case RepairModelKind::kAction: {
      // The technician first inspects, then follows the ticket or the
      // legacy sequence, and performs one action per attempt.
      const faults::Fault* primary = ctx_.injector.fault(faults.front());
      assert(primary != nullptr);
      std::optional<faults::RepairAction> action =
          technician_.inspect(primary->cause, ctx_.rng);
      if (!action.has_value()) {
        const repair::Ticket& ticket = queue_.ticket(event.ticket);
        action = technician_.choose_action(ticket.recommendation,
                                           event.attempt, ctx_.rng);
      }
      if (*action == faults::RepairAction::kReseatTransceiver) {
        reseated_[event.link.index()] = 1;
      }
      for (common::FaultId fault : faults) {
        ctx_.injector.try_repair(fault, *action);
      }
      return !ctx_.state.link_is_corrupting(event.link);
    }
  }
  return false;
}

void RepairPipeline::handle_failed_repair(common::LinkId link) {
  switch (ctx_.config.verification) {
    case RepairVerification::kTestTraffic:
      // Cost-out mode: test traffic shows the link still corrupts; the
      // link never rejoins routing and a follow-up ticket opens at once.
      open_ticket(link, ctx_.clock.now());
      break;
    case RepairVerification::kEnableAndObserve:
      // Disable mode: the link is enabled after the visit and live
      // traffic flows (and corrupts) until monitoring re-detects the
      // loss — the Figure 12 cycle. In oracle mode the re-detection is a
      // scheduled event; in polled mode the real pipeline picks it up.
      ctx_.topo.set_enabled(link, true);
      if (ctx_.config.detection == DetectionMode::kPolled) {
        detection_.expect_redetection(link, ctx_.clock.now());
      } else {
        Event redetect;
        redetect.due = ctx_.clock.now() + ctx_.config.redetection_delay;
        redetect.type = EventType::kRedetect;
        redetect.link = link;
        redetect.attempt = attempts_[link.index()];
        ctx_.queue.schedule(redetect);
      }
      break;
  }
}

void RepairPipeline::handle_redetect(const Event& event) {
  // Monitoring caught the still-corrupting link again; the controller
  // re-disables it (capacity permitting), issuing the next ticket.
  SimulationMetrics& metrics = *ctx_.metrics;
  ++metrics.redetections;
  const double rate = ctx_.state.link_corruption_rate(event.link);
  {
    obs::Event journal_event;
    journal_event.kind = obs::EventKind::kRedetection;
    journal_event.link = event.link;
    journal_event.value = rate;
    ctx_.emit(journal_event);
  }
  if (rate >= core::kLossyThreshold) {
    ctx_.controller.on_corruption_detected(event.link, rate);
  }
}

void RepairPipeline::handle_repair(const Event& event) {
  // The technician is done: any maintenance window on this link closes
  // and the healthy siblings come back.
  maintenance_.end(event.link);

  SimulationMetrics& metrics = *ctx_.metrics;
  ++metrics.repair_attempts;
  const bool first = event.attempt == 1;
  if (first) ++metrics.first_attempts;

  // Links whose corruption state the repair may change: shared-component
  // faults span several links beyond the ticketed one.
  std::vector<common::LinkId> affected;
  for (common::FaultId id : ctx_.injector.faults_on_link(event.link)) {
    const faults::Fault* fault = ctx_.injector.fault(id);
    for (common::LinkId link : fault->links) {
      char& mark = ctx_.link_mark[link.index()];
      if (mark != 0) continue;
      mark = 1;
      affected.push_back(link);
    }
  }
  for (common::LinkId link : affected) ctx_.link_mark[link.index()] = 0;

  const bool success = attempt_repair(event);
  queue_.close(event.ticket);
  {
    obs::Event journal_event;
    journal_event.kind = obs::EventKind::kRepairAttempt;
    journal_event.reason = success ? obs::EventReason::kSucceeded
                                   : obs::EventReason::kFailed;
    journal_event.link = event.link;
    journal_event.ticket = event.ticket;
    journal_event.detail0 = static_cast<std::uint64_t>(event.attempt);
    ctx_.emit(journal_event);
    journal_event.kind = obs::EventKind::kTicketClosed;
    journal_event.reason = obs::EventReason::kNone;
    ctx_.emit(journal_event);
  }
  if (success) {
    if (first) ++metrics.first_attempt_successes;
    attempts_[event.link.index()] = 0;
    reseated_[event.link.index()] = 0;
    detection_.on_repair_success(event.link);
    ctx_.controller.on_link_repaired(event.link);
  } else {
    handle_failed_repair(event.link);
  }

  // Refresh the corruption marks of every other link the repair touched:
  // a shared-component replacement silences peers (which stay disabled
  // until their own tickets complete, succeeding immediately), and a
  // partial action-model fix can change an active peer's loss rate.
  for (common::LinkId link : affected) {
    if (link == event.link) continue;
    const double rate = ctx_.state.link_corruption_rate(link);
    if (rate < core::kLossyThreshold) {
      ctx_.controller.on_corruption_cleared(link);
      if (ctx_.config.detection == DetectionMode::kPolled) {
        detection_.reset(link);
      }
    } else if (ctx_.config.detection == DetectionMode::kOracle) {
      ctx_.controller.on_corruption_detected(link, rate);
    }
  }
}

void RepairPipeline::finalize(SimulationMetrics& metrics) const {
  if (metrics.tickets_opened > 0) {
    metrics.mean_ticket_resolution_s =
        ticket_resolution_total_s_ /
        static_cast<double>(metrics.tickets_opened);
  }
}

void RepairPipeline::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('R', 'P', 'I', 'P'), 1);
  w.u64(attempts_.size());
  for (int a : attempts_) w.i64(a);
  for (char c : reseated_) w.u8(static_cast<std::uint8_t>(c));
  w.f64(ticket_resolution_total_s_);
  queue_.snapshot_to(w);
}

void RepairPipeline::restore_from(common::snap::Reader& r) {
  r.expect_section(common::snap::tag('R', 'P', 'I', 'P'));
  if (r.u64() != attempts_.size()) {
    common::snap::fail("repair pipeline link count mismatch");
  }
  for (int& a : attempts_) a = static_cast<int>(r.i64());
  for (char& c : reseated_) c = static_cast<char>(r.u8());
  ticket_resolution_total_s_ = r.f64();
  queue_.restore_from(r);
}

}  // namespace corropt::sim
