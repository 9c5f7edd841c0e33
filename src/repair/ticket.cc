#include "repair/ticket.h"

#include <algorithm>
#include <cassert>

namespace corropt::repair {

TicketQueue::TicketQueue(TicketQueueParams params) : params_(params) {
  assert(params.technicians >= 0);
  assert(params.service_time > 0);
  crew_free_at_.assign(static_cast<std::size_t>(params.technicians), 0);
}

TicketId TicketQueue::open(LinkId link, SimTime now, int attempt,
                           std::optional<faults::RepairAction> recommendation,
                           std::string rationale) {
  Ticket ticket;
  ticket.id = TicketId(next_id_++);
  ticket.link = link;
  ticket.issued = now;
  ticket.attempt = attempt;
  ticket.recommendation = recommendation;
  ticket.rationale = std::move(rationale);

  if (crew_free_at_.empty()) {
    ticket.scheduled_completion = now + params_.service_time;
  } else {
    // FIFO dispatch to the earliest-free technician.
    auto it = std::min_element(crew_free_at_.begin(), crew_free_at_.end());
    const SimTime start = std::max(*it, now);
    ticket.scheduled_completion = start + params_.service_time;
    *it = ticket.scheduled_completion;
  }

  const TicketId id = ticket.id;
  open_.emplace(id, std::move(ticket));
  return id;
}

const Ticket& TicketQueue::ticket(TicketId id) const {
  const auto it = open_.find(id);
  assert(it != open_.end());
  return it->second;
}

void TicketQueue::close(TicketId id) { open_.erase(id); }

void TicketQueue::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('T', 'C', 'K', 'T'), 1);
  std::vector<TicketId> ids;
  ids.reserve(open_.size());
  for (const auto& [id, ticket] : open_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.u64(ids.size());
  for (TicketId id : ids) {
    const Ticket& ticket = open_.at(id);
    w.u32(ticket.id.value());
    w.u32(ticket.link.value());
    w.i64(ticket.issued);
    w.i64(ticket.attempt);
    w.boolean(ticket.recommendation.has_value());
    if (ticket.recommendation.has_value()) {
      w.u8(static_cast<std::uint8_t>(*ticket.recommendation));
    }
    w.str(ticket.rationale);
    w.i64(ticket.scheduled_completion);
  }
  w.u64(crew_free_at_.size());
  for (SimTime t : crew_free_at_) w.i64(t);
  w.u64(next_id_);
}

void TicketQueue::restore_from(common::snap::Reader& r) {
  r.expect_section(common::snap::tag('T', 'C', 'K', 'T'));
  open_.clear();
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    Ticket ticket;
    ticket.id = TicketId(r.u32());
    ticket.link = LinkId(r.u32());
    ticket.issued = r.i64();
    ticket.attempt = static_cast<int>(r.i64());
    if (r.boolean()) {
      ticket.recommendation =
          static_cast<faults::RepairAction>(r.u8());
    }
    ticket.rationale = std::string(r.str());
    ticket.scheduled_completion = r.i64();
    const TicketId id = ticket.id;
    open_.emplace(id, std::move(ticket));
  }
  std::vector<SimTime> schedule(r.length());
  for (SimTime& t : schedule) t = r.i64();
  next_id_ = static_cast<TicketId::underlying_type>(r.u64());

  // Reconcile the serialized crew schedule with this queue's own
  // params_ (which may carry a counterfactual crew size). Same size:
  // verbatim. Grown: new technicians start free at t = 0 (free "now" —
  // dispatch takes max(free, now)). Shrunk (including to unbounded):
  // keep the latest-free technicians so no in-flight completion time
  // is forgotten.
  const auto target = static_cast<std::size_t>(params_.technicians);
  if (schedule.size() == target) {
    crew_free_at_ = std::move(schedule);
  } else {
    std::sort(schedule.begin(), schedule.end());
    crew_free_at_.assign(target, 0);
    const std::size_t keep = std::min(schedule.size(), target);
    for (std::size_t i = 0; i < keep; ++i) {
      crew_free_at_[target - 1 - i] = schedule[schedule.size() - 1 - i];
    }
  }
}

}  // namespace corropt::repair
