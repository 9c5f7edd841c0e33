// Observability: the sink handed to instrumented components.
//
// A Sink bundles the two optional backends — metrics registry and event
// journal — plus the simulation clock the journal stamps records with.
// Components (corropt::Controller, MitigationSimulation, Optimizer,
// FastChecker, detect::ThresholdBackend) hold a `Sink*` that defaults
// to nullptr; with no sink attached the instrumentation compiles down to
// a pointer test, and behaviour is identical either way (the sink is
// write-only — nothing in the control loop ever reads it back).
//
// The driving event loop owns the clock: MitigationSimulation advances
// `now` before dispatching each event, so everything emitted downstream
// (controller verdicts, optimizer runs) carries the right SimTime
// without the controller needing a clock of its own.
#pragma once

#include "common/time.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace corropt::obs {

// Declared only, as the type of Sink::trace; never defined.
class TraceRecorder;

struct Sink {
  MetricsRegistry* metrics = nullptr;
  EventJournal* journal = nullptr;
  // No effect: always nullptr and nothing reads it. Kept because
  // perfbench's SinkSet aggregate-initialises all four members.
  TraceRecorder* trace = nullptr;
  // Simulation clock, advanced by the driving event loop.
  common::SimTime now = 0;

  // Stamps the clock and appends; no-op without a journal.
  void emit(Event event) {
    if (journal == nullptr) return;
    event.time = now;
    journal->append(event);
  }
};

}  // namespace corropt::obs
