// Maintenance tickets and the FIFO repair queue.
//
// Every disabled link gets a ticket; technicians work tickets in FIFO
// order. The paper's ticket analysis (Section 5.2) found an average of
// two days per ticket, and its simulations model each repair attempt as
// a flat two-day stay. The queue supports both that model (unlimited
// technicians, fixed service time) and a capacity-limited crew, where
// backlog stretches resolution times.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/snapshot.h"
#include "common/time.h"
#include "faults/repair_action.h"

namespace corropt::repair {

using common::SimDuration;
using common::SimTime;
using common::TicketId;

// An open ticket. The link, attempt and completion time travel with the
// kRepair event that closes it.
struct Ticket {
  // CorrOpt's recommendation, when the engine produced one. Tickets
  // without optical data carry no recommendation (Section 7.2).
  std::optional<faults::RepairAction> recommendation;
};

// A freshly opened ticket and when a technician finishes acting on it.
struct OpenedTicket {
  TicketId id;
  SimTime completion = 0;
};

// Every ticket takes common::kMeanRepairTime of a technician's time.
struct TicketQueueParams {
  // 0 means an unbounded crew: every ticket completes issue time +
  // kMeanRepairTime later, the paper's simulation model.
  int technicians = 0;
};

class TicketQueue {
 public:
  explicit TicketQueue(TicketQueueParams params = {});

  // Opens a ticket at `now` and books a technician for it.
  OpenedTicket open(SimTime now,
                    std::optional<faults::RepairAction> recommendation);

  [[nodiscard]] const Ticket& ticket(TicketId id) const;
  [[nodiscard]] bool is_open(TicketId id) const { return open_.contains(id); }
  // Removes a completed ticket from the open set.
  void close(TicketId id);

  // Checkpointing (DESIGN.md §14): open tickets (id order) with their
  // recommendations, the crew schedule and the id counter. `params_`
  // stays the restoring queue's own configuration; when its crew size
  // differs from the serialized schedule (a counterfactual crew-capacity
  // branch), the schedule is reconciled: grown crews gain
  // immediately-free technicians, shrunk crews keep the busiest
  // (latest-free) ones, so in-flight tickets never lose their completion
  // times.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  TicketQueueParams params_;
  std::unordered_map<TicketId, Ticket> open_;
  // With a bounded crew, the time each technician becomes free.
  std::vector<SimTime> crew_free_at_;
  TicketId::underlying_type next_id_ = 0;
};

}  // namespace corropt::repair
