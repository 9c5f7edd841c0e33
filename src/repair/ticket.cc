#include "repair/ticket.h"

#include <algorithm>
#include <cassert>

namespace corropt::repair {

TicketQueue::TicketQueue(TicketQueueParams params) : params_(params) {
  assert(params.technicians >= 0);
  crew_free_at_.assign(static_cast<std::size_t>(params.technicians), 0);
}

OpenedTicket TicketQueue::open(
    SimTime now, std::optional<faults::RepairAction> recommendation) {
  OpenedTicket opened{TicketId(next_id_++), now + common::kMeanRepairTime};
  if (!crew_free_at_.empty()) {
    // FIFO dispatch to the earliest-free technician.
    auto it = std::min_element(crew_free_at_.begin(), crew_free_at_.end());
    opened.completion = std::max(*it, now) + common::kMeanRepairTime;
    *it = opened.completion;
  }
  open_.emplace(opened.id, Ticket{recommendation});
  return opened;
}

const Ticket& TicketQueue::ticket(TicketId id) const {
  const auto it = open_.find(id);
  assert(it != open_.end());
  return it->second;
}

void TicketQueue::close(TicketId id) { open_.erase(id); }

template <class Self, class Codec>
void TicketQueue::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('T', 'C', 'K', 'T'), 2, "ticket queue");
  c.entries(self.open_, [&c](auto& id, auto& ticket) {
    c.id(id);
    bool recommended = ticket.recommendation.has_value();
    c.boolean(recommended);
    if constexpr (Codec::kReading) {
      if (recommended) ticket.recommendation.emplace();
    }
    if (recommended) {
      c.u8(*ticket.recommendation);
      c.check(static_cast<std::size_t>(*ticket.recommendation) <
                  faults::kAllRepairActions.size(),
              "ticket recommendation past the last repair action");
    }
  });
  c.seq(self.crew_free_at_, [&c](auto& t) { c.i64(t); });
  c.u64(self.next_id_);

  // Reconcile the serialized crew schedule with this queue's own
  // params_ (which may carry a counterfactual crew size). Same size:
  // verbatim. Grown: new technicians start free at t = 0 (free "now" —
  // dispatch takes max(free, now)). Shrunk (including to unbounded):
  // keep the latest-free technicians so no in-flight completion time
  // is forgotten.
  if constexpr (Codec::kReading) {
    std::vector<SimTime>& schedule = self.crew_free_at_;
    const auto target = static_cast<std::size_t>(self.params_.technicians);
    if (schedule.size() != target) {
      std::sort(schedule.begin(), schedule.end());
      if (schedule.size() > target) {
        schedule.erase(schedule.begin(), schedule.end() - target);
      } else {
        schedule.insert(schedule.begin(), target - schedule.size(), 0);
      }
    }
  }
}

void TicketQueue::snapshot_to(common::snap::Writer& w) const {
  walk(*this, w);
}
void TicketQueue::restore_from(common::snap::Reader& r) { walk(*this, r); }

}  // namespace corropt::repair
