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

template <class Self, class Codec>
void EventQueue::walk(Self& self, Codec& c) {
  c.section(common::snap::tag('E', 'V', 'T', 'Q'), 1, "event queue");
  c.seq(self.heap_, [&c](auto& entry) {
    c.i64(entry.event.due);
    c.u8(entry.event.type);
    c.check(static_cast<std::size_t>(entry.event.type) < kEventTypeCount,
            "event queue: unknown event type");
    c.id(entry.event.link);
    c.id(entry.event.ticket);
    c.i64(entry.event.attempt);
    c.u64(entry.seq);
    if constexpr (Codec::kReading) {
      entry.stratum = event_stratum(entry.event.type);
    }
  });
  c.u64(self.next_seq_);
  // Entries were serialized in heap-array order, so the invariant holds
  // verbatim; make_heap anyway to stay correct if a future version
  // canonicalizes the serialized order.
  if constexpr (Codec::kReading) {
    std::make_heap(self.heap_.begin(), self.heap_.end(), std::greater<>());
  }
}

void EventQueue::snapshot_to(common::snap::Writer& w) const { walk(*this, w); }
void EventQueue::restore_from(common::snap::Reader& r) { walk(*this, r); }

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
