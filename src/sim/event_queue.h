// Discrete-event kernel: a typed event queue with stable ordering plus
// the simulation clock.
//
// The queue is a min-heap keyed on (due, stratum, sequence):
//   - `due` is the simulation time the event fires;
//   - `stratum` is a small static priority derived from the event type,
//     fixing the dispatch order of same-instant events of *different*
//     kinds (capacity samples fire before poll cycles fire before repair
//     completions fire before fault onsets — the order the legacy
//     monolithic loop established);
//   - `sequence` is a monotonic insertion counter, so same-instant
//     events of the same stratum dispatch in FIFO order instead of
//     whatever the heap internals happen to yield. The three
//     repair-pipeline types share one stratum, preserving the FIFO
//     contract the legacy single repair heap had after its tie-break
//     fix.
//
// Components register one handler per event type; the composition layer
// (MitigationSimulation::run) pops events, advances the clock, and
// dispatches. The kernel knows nothing about detection, repair, or
// penalties — new scenarios add event types and components, not branches
// in a loop.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/snapshot.h"
#include "common/time.h"
#include "obs/sink.h"

namespace corropt::sim {

using common::SimTime;

enum class EventType : std::uint8_t {
  // Periodic ToR-capacity sampling (CapacitySampler).
  kCapacitySample = 0,
  // Periodic SNMP poll cycle (DetectionPipeline, polled mode only).
  kPoll,
  // A technician visit completes (RepairPipeline).
  kRepair,
  // kEnableAndObserve + oracle: monitoring re-detects a failed repair.
  kRedetect,
  // Collateral modeling: a maintenance window opens (MaintenanceModel).
  kMaintenanceStart,
  // End of the simulated horizon; terminates the run loop.
  kEnd,
  // The next fault of the replayed corruption trace manifests.
  kFault,
};
inline constexpr std::size_t kEventTypeCount = 7;

// Same-instant dispatch order across types; lower strata fire first.
// kEnd sits between the repair stratum and kFault on purpose: scheduled
// work due exactly at the horizon still completes, while a fault whose
// onset coincides with the horizon never enters the system — exactly
// the `<=` vs `<` asymmetry of the legacy loop's event selection.
[[nodiscard]] constexpr int event_stratum(EventType type) {
  switch (type) {
    case EventType::kCapacitySample:
      return 0;
    case EventType::kPoll:
      return 1;
    case EventType::kRepair:
    case EventType::kRedetect:
    case EventType::kMaintenanceStart:
      return 2;
    case EventType::kEnd:
      return 3;
    case EventType::kFault:
      return 4;
  }
  return 5;
}

struct Event {
  SimTime due = 0;
  EventType type = EventType::kEnd;
  // Payload; unused fields keep their invalid defaults.
  common::LinkId link;
  common::TicketId ticket;
  int attempt = 0;
};

class EventQueue {
 public:
  using Handler = std::function<void(const Event&)>;

  // Replaces the handler dispatched for `type`. Registration happens at
  // component construction; dispatching an event whose type has no
  // handler is a programming error (asserted).
  void set_handler(EventType type, Handler handler);

  void schedule(Event event);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  // Total events ever scheduled (== the next sequence number).
  [[nodiscard]] std::uint64_t scheduled_total() const { return next_seq_; }

  // Removes and returns the earliest event under (due, stratum,
  // sequence) order.
  Event pop();

  // Invokes the handler registered for the event's type.
  void dispatch(const Event& event) const;

  // Checkpointing (DESIGN.md §14): pending entries are serialized in raw
  // heap-array order and restored verbatim. That is sound because pop
  // order depends only on the strict total order (due, stratum, seq) —
  // never on array layout — so the restored queue pops the exact same
  // sequence. Handlers are not serialized; they belong to the restoring
  // simulation's components.
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

  // Removes every pending event of `type` (used by restore
  // reconciliation, e.g. re-deriving the trace cursor's kFault).
  void drop_events(EventType type);
  // Any pending event of `type`?
  [[nodiscard]] bool has_event(EventType type) const;

 private:
  struct Entry {
    Event event;
    int stratum;
    std::uint64_t seq;
    // std::greater-style comparison for a min-heap on (due, stratum,
    // seq).
    [[nodiscard]] bool operator>(const Entry& other) const {
      if (event.due != other.event.due) return event.due > other.event.due;
      if (stratum != other.stratum) return stratum > other.stratum;
      return seq > other.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::array<Handler, kEventTypeCount> handlers_;
};

// The simulation clock. Owned by the run loop: only
// PenaltyAccountant::integrate_until advances it (keeping penalty
// integration and time in lockstep), everything else reads it. When a
// sink is attached the journal clock `Sink::now` advances with it, so
// every record emitted downstream carries the right timestamp.
class Clock {
 public:
  void attach_sink(obs::Sink* sink) { sink_ = sink; }

  [[nodiscard]] SimTime now() const { return now_; }

  // Monotonic: `t` must not precede the current time.
  void advance_to(SimTime t);

  // Checkpoint restore: jumps the clock (either direction) and forwards
  // the new time to the attached sink.
  void restore_now(SimTime t);

 private:
  SimTime now_ = 0;
  obs::Sink* sink_ = nullptr;
};

}  // namespace corropt::sim
