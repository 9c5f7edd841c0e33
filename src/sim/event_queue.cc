#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace corropt::sim {

void EventQueue::set_handler(EventType type, Handler handler) {
  handlers_[static_cast<std::size_t>(type)] = std::move(handler);
}

void EventQueue::schedule(Event event) {
  heap_.push_back({event, event_stratum(event.type), next_seq_++});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

Event EventQueue::pop() {
  assert(!heap_.empty());
  const Event event = heap_.front().event;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
  return event;
}

void EventQueue::dispatch(const Event& event) const {
  const Handler& handler = handlers_[static_cast<std::size_t>(event.type)];
  assert(handler != nullptr);
  handler(event);
}

void EventQueue::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('E', 'V', 'T', 'Q'), 1);
  w.u64(heap_.size());
  for (const Entry& entry : heap_) {
    w.i64(entry.event.due);
    w.u8(static_cast<std::uint8_t>(entry.event.type));
    w.u32(entry.event.link.value());
    w.u32(entry.event.ticket.value());
    w.i64(entry.event.attempt);
    w.u64(entry.seq);
  }
  w.u64(next_seq_);
}

void EventQueue::restore_from(common::snap::Reader& r) {
  r.expect_section(common::snap::tag('E', 'V', 'T', 'Q'));
  heap_.resize(r.length());
  for (Entry& entry : heap_) {
    entry.event.due = r.i64();
    const std::uint8_t type = r.u8();
    if (type >= kEventTypeCount) {
      common::snap::fail("event queue: unknown event type");
    }
    entry.event.type = static_cast<EventType>(type);
    entry.event.link = common::LinkId(r.u32());
    entry.event.ticket = common::TicketId(r.u32());
    entry.event.attempt = static_cast<int>(r.i64());
    entry.stratum = event_stratum(entry.event.type);
    entry.seq = r.u64();
  }
  next_seq_ = r.u64();
  // Entries were serialized in heap-array order, so the invariant holds
  // verbatim; make_heap anyway to stay correct if a future version
  // canonicalizes the serialized order.
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void EventQueue::drop_events(EventType type) {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [type](const Entry& entry) {
                               return entry.event.type == type;
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

bool EventQueue::has_event(EventType type) const {
  return std::any_of(heap_.begin(), heap_.end(), [type](const Entry& entry) {
    return entry.event.type == type;
  });
}

void Clock::advance_to(SimTime t) {
  assert(t >= now_);
  now_ = t;
  if (sink_ != nullptr) sink_->now = now_;
}

void Clock::restore_now(SimTime t) {
  now_ = t;
  if (sink_ != nullptr) sink_->now = now_;
}

}  // namespace corropt::sim
