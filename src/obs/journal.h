// Observability: the structured decision journal.
//
// Aggregate counters say *how much* happened; the journal says *what*
// happened, in order, attributably — the per-event telemetry that makes
// a mitigation pipeline debuggable at scale (cf. 007, Arzani et al.).
// Every decision in the CorrOpt control loop (corruption detected,
// fast-check verdict, link disabled/enabled, ticket opened/closed,
// optimizer run, repair outcome) is one typed, fixed-size record stamped
// with the simulation clock, the link/switch/ticket it concerns, and a
// monotonic sequence number.
//
// Determinism: the journal is filled from the (single-threaded) event
// loop of the controller/simulation, and the paper exhibits it supports
// carry no wall-clock — so the JSONL stream write_event_jsonl() makes of
// snapshot() is identical for any scenario-runner pool size, the same
// contract DESIGN.md §7 states for ScenarioRunner metrics
// (asserted by tests/obs_test.cc).
//
// Storage is a bounded ring: once `capacity` records are held the oldest
// is dropped (and counted), so an attached journal can never make a long
// scenario run out of memory.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace corropt::obs {

enum class EventKind : std::uint8_t {
  // value = link loss rate. The controller was told `link` corrupts.
  kCorruptionDetected,
  // value = loss rate, reason = verdict (kDisabledVerdict /
  // kRefusedCapacity / kAlreadyDisabled).
  kFastCheckVerdict,
  // value = loss rate, reason = kArrival or kActivation.
  kLinkDisabled,
  // Link returned to service after a successful repair.
  kLinkEnabled,
  // Monitoring downgraded its estimate without a repair; value = last
  // known rate.
  kCorruptionCleared,
  // detail0 = attempt number, detail1 = recommended RepairAction index+1
  // (0 when the ticket carries no recommendation).
  kTicketOpened,
  // detail0 = attempt number.
  kTicketClosed,
  // value = disabled penalty, value2 = remaining penalty, detail0 =
  // links disabled by the run, detail1 = subsets_evaluated.
  kOptimizerRun,
  // reason = kSucceeded / kFailed, detail0 = attempt number.
  kRepairAttempt,
  // kEnableAndObserve: monitoring re-caught a failed repair; value =
  // loss rate.
  kRedetection,
  // Collateral modeling; detail0 = healthy siblings taken down.
  kMaintenanceStart,
  kMaintenanceEnd,
  // kPolled detection pipeline verdict; value = estimated rate,
  // detail0 = detection latency in seconds.
  kPolledDetection,
  // value = total penalty per second after the event just handled; the
  // sequence of these records is exactly Figure 14's step function.
  kPenaltySample,
  // detail0 = links struck by the fault, detail1 = root-cause index.
  kFaultInjected,
  // Detection-backend verdict (opt-in detailed obs; DESIGN.md §13).
  // value = estimated rate, value2 = 1.0 when the verdict was a false
  // positive (link below the lossy threshold at verdict time), detail0 =
  // detection latency in seconds (corrupting verdicts with a pending
  // fault only), detail1 = detect::BackendKind index. reason =
  // kSucceeded for corrupting verdicts, kNone for clears.
  kDetectionVerdict,
};

enum class EventReason : std::uint8_t {
  kNone,
  kArrival,           // Disabled by the arrival checker.
  kActivation,        // Disabled on activation (optimizer / recheck).
  kDisabledVerdict,   // Fast check: safe, link disabled.
  kRefusedCapacity,   // Fast check: constraint would break, kept active.
  kAlreadyDisabled,   // Fast check: link was already out of service.
  kSucceeded,
  kFailed,
};

[[nodiscard]] std::string_view kind_name(EventKind kind);
[[nodiscard]] std::string_view reason_name(EventReason reason);

struct Event {
  // Monotonic per-journal sequence number, stamped on append.
  std::uint64_t seq = 0;
  // Simulation clock (seconds); stamped from Sink::now on emit.
  common::SimTime time = 0;
  EventKind kind = EventKind::kPenaltySample;
  EventReason reason = EventReason::kNone;
  // Entities the event concerns; invalid ids mean "not applicable".
  common::LinkId link;
  // Context switch (the link's lower endpoint for link events).
  common::SwitchId sw;
  common::TicketId ticket;
  // Kind-specific payload; see EventKind comments.
  double value = 0.0;
  double value2 = 0.0;
  std::uint64_t detail0 = 0;
  std::uint64_t detail1 = 0;

  // The one field list: the checkpoint's OBSS section and digest().
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c) {
    c.u64(self.seq);
    c.i64(self.time);
    c.u8(self.kind);
    c.u8(self.reason);
    c.id(self.link);
    c.id(self.sw);
    c.id(self.ticket);
    c.f64(self.value);
    c.f64(self.value2);
    c.u64(self.detail0);
    c.u64(self.detail1);
  }
};

struct MetricsSnapshot;

// Identity digest of an obs capture: snap::digest of the codec bytes of
// the journal's records (Event::walk) and the snapshot's deterministic
// sections (MetricsSnapshot::walk, timers excluded). Two captures are
// identical iff their digests match; nothing is formatted as text.
[[nodiscard]] std::uint64_t digest(const std::vector<Event>& journal,
                                   const MetricsSnapshot& metrics);

// One event as a single JSONL line (no trailing newline). `scenario`,
// when non-empty, is prepended as a "scenario" member — used by the
// bench runner to concatenate per-job journals into one file.
void write_event_jsonl(std::ostream& out, const Event& event,
                       std::string_view scenario = {});

class EventJournal {
 public:
  explicit EventJournal(std::size_t capacity = 1 << 20);

  // Stamps the sequence number and stores the event; thread-safe. When
  // full, the oldest record is evicted.
  void append(Event event);

  // Events evicted by the ring bound.
  [[nodiscard]] std::uint64_t dropped() const;

  // Retained events in sequence order.
  [[nodiscard]] std::vector<Event> snapshot() const;

  // Checkpointing (DESIGN.md §14): replaces the journal's contents with
  // a previously captured state. `events` must be in sequence order (a
  // snapshot()); only the newest `capacity` of them are retained, exactly
  // as if they had been appended in order.
  void restore(const std::vector<Event>& events, std::uint64_t next_seq,
               std::uint64_t dropped);

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  // Index of the oldest record once the ring has wrapped.
  std::size_t head_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace corropt::obs
