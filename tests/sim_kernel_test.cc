// Unit tests for the discrete-event kernel (sim/event_queue.h): event
// ordering under (due, stratum, sequence), the colliding-timestamp FIFO
// regression the repair pipeline depends on, handler dispatch, and clock
// monotonicity / journal-clock propagation.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "obs/sink.h"
#include "sim/event_queue.h"

namespace corropt::sim {
namespace {

Event make_event(SimTime due, EventType type, int attempt = 0) {
  Event event;
  event.due = due;
  event.type = type;
  event.attempt = attempt;
  return event;
}

// True when no event of any type is pending.
bool drained(const EventQueue& queue) {
  for (std::size_t type = 0; type < kEventTypeCount; ++type) {
    if (queue.has_event(static_cast<EventType>(type))) return false;
  }
  return true;
}

TEST(EventQueueTest, PopsInDueOrder) {
  EventQueue queue;
  queue.schedule(make_event(30, EventType::kFault));
  queue.schedule(make_event(10, EventType::kFault));
  queue.schedule(make_event(20, EventType::kFault));

  EXPECT_EQ(queue.pop().due, 10u);
  EXPECT_EQ(queue.pop().due, 20u);
  EXPECT_EQ(queue.pop().due, 30u);
  EXPECT_TRUE(drained(queue));
}

TEST(EventQueueTest, StratumBreaksTiesAcrossTypes) {
  // All due at t = 100, scheduled in reverse stratum order. The pop
  // order must be the legacy loop's same-instant priority: capacity
  // sample, poll, repair, end, fault.
  EventQueue queue;
  queue.schedule(make_event(100, EventType::kFault));
  queue.schedule(make_event(100, EventType::kEnd));
  queue.schedule(make_event(100, EventType::kRepair));
  queue.schedule(make_event(100, EventType::kPoll));
  queue.schedule(make_event(100, EventType::kCapacitySample));

  EXPECT_EQ(queue.pop().type, EventType::kCapacitySample);
  EXPECT_EQ(queue.pop().type, EventType::kPoll);
  EXPECT_EQ(queue.pop().type, EventType::kRepair);
  EXPECT_EQ(queue.pop().type, EventType::kEnd);
  EXPECT_EQ(queue.pop().type, EventType::kFault);
}

TEST(EventQueueTest, RepairStratumIsSharedAndFifo) {
  // Regression for the pre-kernel tie-break bug: repair-pipeline events
  // due at the same instant must dispatch in insertion order, not in
  // whatever order the binary heap's internal array yields. The three
  // repair-pipeline types share one stratum so cross-type insertion
  // order is also preserved.
  EventQueue queue;
  queue.schedule(make_event(50, EventType::kRepair, /*attempt=*/1));
  queue.schedule(make_event(50, EventType::kMaintenanceStart, /*attempt=*/2));
  queue.schedule(make_event(50, EventType::kRedetect, /*attempt=*/3));
  queue.schedule(make_event(50, EventType::kRepair, /*attempt=*/4));

  for (int expected = 1; expected <= 4; ++expected) {
    const Event event = queue.pop();
    EXPECT_EQ(event.due, 50u);
    EXPECT_EQ(event.attempt, expected);
  }
}

TEST(EventQueueTest, CollidingTimestampsStayFifoAtScale) {
  // Many same-instant, same-stratum events interleaved with other due
  // times; heap rebalancing must never reorder the colliding batch.
  constexpr int kColliding = 64;
  EventQueue queue;
  for (int i = 0; i < kColliding; ++i) {
    queue.schedule(make_event(1000, EventType::kRepair, i));
    // Interleave other work to force heap churn.
    queue.schedule(make_event(500 + static_cast<SimTime>(i),
                              EventType::kFault));
    queue.schedule(make_event(2000 - static_cast<SimTime>(i),
                              EventType::kFault));
  }
  // Drain everything before the collision: the kColliding early faults.
  for (int i = 0; i < kColliding; ++i) {
    ASSERT_EQ(queue.pop().due, 500u + static_cast<SimTime>(i));
  }
  for (int expected = 0; expected < kColliding; ++expected) {
    const Event event = queue.pop();
    ASSERT_EQ(event.due, 1000u);
    ASSERT_EQ(event.type, EventType::kRepair);
    EXPECT_EQ(event.attempt, expected);
  }
  EXPECT_EQ(queue.pop().due, 2000u - (kColliding - 1));
}

TEST(EventQueueTest, SequenceCounterCountsEveryScheduledEvent) {
  EventQueue queue;
  queue.schedule(make_event(1, EventType::kFault));
  queue.schedule(make_event(2, EventType::kFault, 1));
  (void)queue.pop();
  queue.schedule(make_event(2, EventType::kFault, 2));
  queue.schedule(make_event(2, EventType::kFault, 3));
  // The counter tracks schedules, not outstanding events: an event
  // scheduled after a pop still ties after every earlier one.
  for (int attempt = 1; attempt <= 3; ++attempt) {
    EXPECT_EQ(queue.pop().attempt, attempt);
  }
  EXPECT_TRUE(drained(queue));
}

TEST(EventQueueTest, DispatchRoutesToPerTypeHandlers) {
  EventQueue queue;
  std::vector<EventType> seen;
  queue.set_handler(EventType::kPoll,
                    [&seen](const Event& event) { seen.push_back(event.type); });
  queue.set_handler(EventType::kFault,
                    [&seen](const Event& event) { seen.push_back(event.type); });

  queue.schedule(make_event(5, EventType::kFault));
  queue.schedule(make_event(5, EventType::kPoll));
  while (!drained(queue)) queue.dispatch(queue.pop());

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], EventType::kPoll);
  EXPECT_EQ(seen[1], EventType::kFault);
}

TEST(EventQueueTest, HandlerMaySchedule) {
  // The periodic components (poll, capacity sample) reschedule from
  // inside their own handler; the queue must tolerate that.
  EventQueue queue;
  int fired = 0;
  queue.set_handler(EventType::kPoll, [&](const Event& event) {
    ++fired;
    if (fired < 3) {
      Event next = event;
      next.due = event.due + 10;
      queue.schedule(next);
    }
  });
  queue.schedule(make_event(0, EventType::kPoll));
  SimTime last = 0;
  while (!drained(queue)) {
    const Event event = queue.pop();
    EXPECT_GE(event.due, last);
    last = event.due;
    queue.dispatch(event);
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(last, 20u);
}

TEST(EventQueueTest, StratumMappingIsStable) {
  // The golden fixtures bake this order in; changing it is a
  // behavior change, not a refactor.
  EXPECT_EQ(event_stratum(EventType::kCapacitySample), 0);
  EXPECT_EQ(event_stratum(EventType::kPoll), 1);
  EXPECT_EQ(event_stratum(EventType::kRepair), 2);
  EXPECT_EQ(event_stratum(EventType::kRedetect), 2);
  EXPECT_EQ(event_stratum(EventType::kMaintenanceStart), 2);
  EXPECT_EQ(event_stratum(EventType::kEnd), 3);
  EXPECT_EQ(event_stratum(EventType::kFault), 4);
}

TEST(ClockTest, StartsAtZeroAndAdvancesMonotonically) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance_to(15);
  EXPECT_EQ(clock.now(), 15u);
  // Advancing to the current time is a no-op, not an error.
  clock.advance_to(15);
  EXPECT_EQ(clock.now(), 15u);
  clock.advance_to(40);
  EXPECT_EQ(clock.now(), 40u);
}

TEST(ClockTest, PropagatesTimeToJournalSink) {
  obs::Sink sink;
  Clock clock;
  clock.attach_sink(&sink);
  clock.advance_to(123);
  EXPECT_EQ(sink.now, 123u);
  clock.advance_to(456);
  EXPECT_EQ(sink.now, 456u);
}

}  // namespace
}  // namespace corropt::sim
