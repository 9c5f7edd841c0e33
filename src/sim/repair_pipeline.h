// RepairPipeline: tickets, technicians, and repair verification.
//
// Owns the FIFO ticket queue, the technician and recommendation models,
// and the per-link attempt/reseat history. Handles kRepair (a
// technician visit completes) and kRedetect (enable-and-observe: a
// failed repair is re-caught by monitoring) events, applying either the
// paper's outcome model or the deployment action model, and routing
// failed repairs through the configured verification policy
// (enable-and-observe vs test-traffic cost-out).
#pragma once

#include <vector>

#include "common/ids.h"
#include "corropt/recommendation.h"
#include "repair/technician.h"
#include "repair/ticket.h"
#include "sim/detection_pipeline.h"
#include "sim/maintenance_model.h"
#include "sim/sim_context.h"

namespace corropt::sim {

class RepairPipeline {
 public:
  // Under enable-and-observe with oracle detection, how long a failed
  // repair corrupts live traffic before monitoring re-detects it: one
  // detection window of 15-minute polls.
  static constexpr SimDuration kRedetectionDelay = common::kHour;

  // Registers the kRepair and kRedetect handlers on the kernel.
  RepairPipeline(SimContext& ctx, DetectionPipeline& detection,
                 MaintenanceModel& maintenance);

  // Opens a ticket for `link` (with a recommendation when configured),
  // schedules the completion event and any collateral maintenance
  // window, and counts it in the run metrics. Called by the
  // controller's ticket callback and by failed test-traffic repairs.
  void open_ticket(common::LinkId link, SimTime now);

  // Finalizes the mean ticket resolution time; call at end of run.
  void finalize(SimulationMetrics& metrics) const;

  // True while the ticket awaits its kRepair event.
  [[nodiscard]] bool is_open(common::TicketId ticket) const {
    return queue_.is_open(ticket);
  }

  // Checkpointing (DESIGN.md §14): attempt/reseat history, the
  // resolution-time accumulator, and the ticket queue (which reconciles
  // the crew schedule when the restoring scenario staffs differently).
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);
  void handle_repair(const Event& event);
  void handle_redetect(const Event& event);
  // True when the repair attempt eliminated all corruption on the link.
  bool attempt_repair(const Event& event);
  void handle_failed_repair(common::LinkId link);

  SimContext& ctx_;
  DetectionPipeline& detection_;
  MaintenanceModel& maintenance_;
  core::RecommendationEngine recommender_;
  repair::TicketQueue queue_;
  repair::Technician technician_;
  // Per-link repair attempt counts (reset on success).
  std::vector<int> attempts_;
  // Per-link flag: reseat attempted since last success (Algorithm 1's
  // repair-history input).
  std::vector<char> reseated_;
  // Sum of ticket open-to-completion spans, for the crew-planning metric.
  double ticket_resolution_total_s_ = 0.0;
};

}  // namespace corropt::sim
