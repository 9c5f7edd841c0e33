// DetectionPipeline: how the controller learns that links corrupt.
//
// Owns the poll cadence, the suspect set, the pending-detection latency
// accounting and the controller hand-off; the evidence gathering itself
// is delegated to a detect::DetectionBackend selected by
// ScenarioConfig::backend (SNMP threshold / 007-style voting /
// count-min sketch — DESIGN.md §13). In kOracle mode fault onsets are
// forwarded to the controller immediately with exact loss rates (the
// paper's modeling shortcut); in kPolled mode the component schedules a
// kPoll event every 15 minutes, runs the backend over the suspect set,
// and feeds its verdicts to the controller with realistic latency.
#pragma once

#include <map>
#include <memory>

#include "common/ids.h"
#include "detect/backend.h"
#include "faults/fault.h"
#include "sim/sim_context.h"

namespace corropt::sim {

class DetectionPipeline {
 public:
  // Registers the kPoll handler on the kernel and builds the configured
  // backend (always, so counter registration does not depend on the
  // detection mode).
  explicit DetectionPipeline(SimContext& ctx);

  // Wires the backend's observability counters (monitor/detector for the
  // threshold backend) plus, when ScenarioConfig::backend opts in, the
  // pipeline's own detect.* verdict counters. Called by the composition
  // layer after the controller's sink is attached, so the registry's
  // registration order (and hence snapshot order) matches the order
  // counters are first touched: controller, backend, pipeline.
  void attach_sink(obs::Sink* sink);

  // Schedules the first poll cycle (kPolled mode only); call once per
  // run before the event loop starts.
  void start();

  // A fault just manifested: every lossy link is either reported to the
  // controller at once (oracle) or queued for the monitoring pipeline
  // to notice (polled).
  void on_fault(const faults::Fault& fault);

  // kEnableAndObserve + polled: a failed repair re-enabled the link, so
  // the real pipeline has to re-detect it; restart its window state and
  // start the latency clock.
  void expect_redetection(common::LinkId link, SimTime now);

  // A repair fully fixed the link: clear the backend's window/alert
  // state and any pending-detection entry.
  void on_repair_success(common::LinkId link);

  // A shared-component repair silenced a peer link (polled mode only
  // forgets its backend state).
  void reset(common::LinkId link);

  // Finalizes the mean detection latency; call at end of run.
  void finalize(SimulationMetrics& metrics) const;

  // Checkpointing (DESIGN.md §14): the pending-detection books plus the
  // backend's private state, framed as a blob tagged with the backend
  // kind. A restore into a pipeline running a *different* backend kind
  // skips the payload unread (the counterfactual backend starts with
  // fresh evidence — there is no meaningful translation between, say,
  // sketch deltas and vote tallies).
  void snapshot_to(common::snap::Writer& w) const;
  void restore_from(common::snap::Reader& r);

 private:
  template <class Self, class Codec>
  static void walk(Self& self, Codec& c);

  // One 15-minute cycle: builds the suspect set, runs the backend, and
  // sweeps pending entries whose fault vanished undetected.
  void handle_poll(const Event& event);
  // Books one backend verdict: metrics, latency, ground-truth false
  // positive classification, journal, controller hand-off.
  void handle_verdict(const detect::Verdict& verdict, SimTime now);

  SimContext& ctx_;
  std::unique_ptr<detect::DetectionBackend> backend_;
  // Whether the detect.* counters and kDetectionVerdict journal records
  // are live: for every backend but the default threshold one, whose
  // registry snapshots and journals stay exactly those of the paper's
  // pipeline.
  bool obs_detail_ = false;
  // Onset time of the oldest unobserved fault per link, for latency
  // accounting. Links without pending detection are absent. Ordered:
  // handle_poll folds this map into the suspect set, so its iteration
  // order is behavior (it decides backend evaluation order) and must be
  // a function of the *contents*, not of container history — a
  // checkpoint restore rebuilds the map by insertion.
  std::map<common::LinkId, SimTime> pending_detection_;

  obs::Counter obs_verdicts_;
  obs::Counter obs_clears_;
  obs::Counter obs_false_positives_;
  obs::Counter obs_missed_;
  obs::Histogram obs_latency_;
};

}  // namespace corropt::sim
