#include "sim/mitigation_sim.h"

#include <algorithm>
#include <string>

#include "obs/journal.h"

namespace corropt::sim {

namespace {

core::ControllerConfig controller_config(const ScenarioConfig& config) {
  core::ControllerConfig out;
  out.mode = config.mode;
  out.capacity_fraction = config.capacity_fraction;
  out.optimizer = config.optimizer;
  out.account_collateral_repair = config.account_collateral_repair;
  return out;
}

}  // namespace

MitigationSimulation::MitigationSimulation(topology::Topology& topo,
                                           ScenarioConfig config)
    : topo_(&topo),
      config_(config),
      rng_(config.seed),
      state_(topo, telemetry::default_tech()),
      injector_(state_),
      controller_(topo, controller_config(config)),
      ctx_{topo, config_, rng_, state_, injector_, controller_,
           controller_.paths(), clock_, queue_, nullptr, {}},
      detection_(ctx_),
      maintenance_(ctx_),
      repair_(ctx_, detection_, maintenance_),
      accountant_(ctx_),
      sampler_(ctx_) {
  ctx_.link_mark.assign(topo.link_count(), 0);
  for (const auto& [tor, fraction] : config_.tor_overrides) {
    controller_.mutable_constraint().set_tor_fraction(tor, fraction);
  }
  clock_.attach_sink(config_.sink);
  if (config_.sink != nullptr) {
    controller_.set_sink(config_.sink);
    detection_.attach_sink(config_.sink);
  }
  queue_.set_handler(EventType::kFault,
                     [this](const Event& event) { handle_fault(event); });
}

void MitigationSimulation::handle_fault(const Event&) {
  const trace::TraceEvent& event = (*events_)[next_event_++];
  injector_.advance(clock_.now());
  injector_.inject(event.fault);
  ++ctx_.metrics->faults_injected;
  {
    obs::Event journal_event;
    journal_event.kind = obs::EventKind::kFaultInjected;
    if (!event.fault.links.empty()) {
      journal_event.link = event.fault.links.front();
    }
    journal_event.detail0 = event.fault.links.size();
    journal_event.detail1 = static_cast<std::uint64_t>(event.fault.cause);
    ctx_.emit(journal_event);
  }
  detection_.on_fault(event.fault);
  if (next_event_ < events_->size()) {
    Event next;
    next.due = (*events_)[next_event_].time;
    next.type = EventType::kFault;
    queue_.schedule(next);
  }
}

void MitigationSimulation::begin_run(
    const std::vector<trace::TraceEvent>& events) {
  metrics_ = SimulationMetrics{};
  metrics_.mean_tor_fraction = 0.0;
  steps_ = 0;
  finished_ = false;
  ctx_.metrics = &metrics_;
  events_ = &events;
  next_event_ = 0;

  controller_.set_ticket_callback([this](common::LinkId link) {
    repair_.open_ticket(link, clock_.now());
  });

  // Seed the kernel: horizon, periodic sampling, polling (polled mode),
  // and the first fault of the trace. Event ordering at equal times is
  // governed by event_stratum(); see event_queue.h.
  Event end;
  end.due = config_.duration;
  end.type = EventType::kEnd;
  queue_.schedule(end);
  sampler_.start();
  detection_.start();
  if (!events.empty()) {
    Event fault;
    fault.due = events.front().time;
    fault.type = EventType::kFault;
    queue_.schedule(fault);
  }

  accountant_.record_sample();  // The t = 0 baseline point.
}

bool MitigationSimulation::step() {
  const Event event = queue_.pop();
  accountant_.integrate_until(event.due);
  if (event.type == EventType::kEnd) {
    finished_ = true;
    return false;
  }
  queue_.dispatch(event);
  if (event.type != EventType::kCapacitySample) {
    // Every state-changing event re-derives the ground-truth penalty
    // rate and records a step-function point (Figure 14).
    accountant_.refresh();
    accountant_.record_sample();
  }
  ++steps_;
  return true;
}

SimulationMetrics MitigationSimulation::finish_run() {
  sampler_.finalize(metrics_);
  repair_.finalize(metrics_);
  detection_.finalize(metrics_);
  metrics_.controller = controller_.stats();
  publish_metrics(config_.sink, metrics_);
  ctx_.metrics = nullptr;
  events_ = nullptr;
  SimulationMetrics out = std::move(metrics_);
  metrics_ = SimulationMetrics{};
  return out;
}

SimulationMetrics MitigationSimulation::run(
    const std::vector<trace::TraceEvent>& events) {
  begin_run(events);
  while (step()) {
  }
  return finish_run();
}

namespace {

constexpr std::uint32_t kSimTag = common::snap::tag('S', 'I', 'M', '0');
constexpr std::uint32_t kObsTag = common::snap::tag('O', 'B', 'S', 'S');

// The sink's journal and registry contents travel with the checkpoint
// so a branch's observability continues exactly where the prefix left
// off. They live outside the simulation, so the walk gathers them into
// locals when writing and hands the locals to the sink when reading.
template <class Codec>
void walk_obs(Codec& c, const obs::Sink* sink) {
  c.section(kObsTag, 1, "obs");
  bool has_journal = sink != nullptr && sink->journal != nullptr;
  bool has_registry = sink != nullptr && sink->metrics != nullptr;
  c.boolean(has_journal);
  c.boolean(has_registry);
  if (has_journal) {
    std::vector<obs::Event> events;
    std::uint64_t next_seq = 0;
    std::uint64_t dropped = 0;
    if constexpr (!Codec::kReading) {
      events = sink->journal->snapshot();
      // next_seq is size + dropped only without clear(); derive it from
      // the newest record instead.
      next_seq = events.empty() ? 0 : events.back().seq + 1;
      dropped = sink->journal->dropped();
    }
    c.seq(events, [&c](auto& e) { obs::Event::walk(e, c); });
    c.u64(next_seq);
    c.u64(dropped);
    if constexpr (Codec::kReading) {
      if (sink != nullptr && sink->journal != nullptr) {
        sink->journal->restore(events, next_seq, dropped);
      }
    }
  }
  if (has_registry) {
    obs::MetricsSnapshot snap;
    if constexpr (!Codec::kReading) snap = sink->metrics->snapshot();
    obs::MetricsSnapshot::walk(snap, c);
    if constexpr (Codec::kReading) {
      if (sink != nullptr && sink->metrics != nullptr) {
        sink->metrics->restore(snap);
      }
    }
  }
}

}  // namespace

template <class Self, class Codec>
void MitigationSimulation::walk(Self& self, Codec& c) {
  c.section(kSimTag, 2, "simulation");
  SimTime now = self.clock_.now();
  c.i64(now);
  c.check(now >= 0 && now <= self.config_.duration,
          "checkpoint time outside this scenario's horizon");
  if constexpr (Codec::kReading) self.clock_.restore_now(now);
  c.u64(self.steps_);
  c.u64(self.next_event_);
  c.object(self.queue_);
  c.object(self.rng_);
  c.object(*self.topo_);
  c.object(self.injector_);
  c.object(self.controller_);
  c.object(self.detection_);
  c.object(self.maintenance_);
  c.object(self.repair_);
  c.object(self.sampler_);
  SimulationMetrics::walk(self.metrics_, c);
  walk_obs(c, self.config_.sink);
  if constexpr (Codec::kReading) {
    // FaultInjector::advance only runs the decay clock forward, to the
    // simulation's time.
    c.check(self.injector_.now() >= 0 && self.injector_.now() <= now,
            "fault injector clock outside [0, checkpoint time]");
    // The handlers trust what a pending event names: they index per-link
    // arrays by its link and look its ticket up unchecked.
    const std::size_t links = self.topo_->link_count();
    self.queue_.for_each_pending([&](const Event& event) {
      c.check(event.due >= now, "pending event due before the checkpoint");
      c.check(!event.link.valid() || event.link.index() < links,
              "pending event names a link past the fabric");
      c.check(event.type != EventType::kRepair ||
                  self.repair_.is_open(event.ticket),
              "pending repair names a ticket that is not open");
    });
  }
}

Checkpoint MitigationSimulation::snapshot() const {
  common::snap::Writer w;
  walk(*this, w);

  Checkpoint ckpt;
  ckpt.bytes = w.take();
  common::snap::seal(ckpt.bytes);
  ckpt.time = clock_.now();
  ckpt.steps = steps_;
  ckpt.trace_cursor = next_event_;
  return ckpt;
}

void MitigationSimulation::restore_run(
    const std::vector<trace::TraceEvent>& events, const Checkpoint& ckpt) {
  // A checkpoint that fails its checksum leaves this simulation as it
  // was: nothing is decoded before the trailer checks out.
  common::snap::Reader r(common::snap::unseal(ckpt.bytes));
  metrics_ = SimulationMetrics{};
  finished_ = false;
  ctx_.metrics = &metrics_;
  events_ = &events;

  controller_.set_ticket_callback([this](common::LinkId link) {
    repair_.open_ticket(link, clock_.now());
  });

  walk(*this, r);
  r.check(r.at_end(), "trailing bytes after the last section");
  // The step-function rate is derived state: ground truth of the
  // restored faults, network state and link state.
  accountant_.refresh();

  // Reconcile config-derived schedule entries to *this* scenario.
  //
  // Rescheduling hands out fresh sequence numbers, which is safe for
  // these three types: each has an exclusive stratum (kFault = 4,
  // kEnd = 3, kPoll = 1) with at most one pending instance, so a
  // same-instant tie never reaches their sequence comparison — pop
  // order stays bit-identical to a fresh run (event_queue.h).
  //
  // kFault: the serialized entry carries the *checkpoint* trace's next
  // onset; re-derive from this run's trace, which may diverge after the
  // shared prefix.
  queue_.drop_events(EventType::kFault);
  if (next_event_ < events.size()) {
    Event fault;
    fault.due = std::max(events[next_event_].time, clock_.now());
    fault.type = EventType::kFault;
    queue_.schedule(fault);
  }
  // kEnd: this scenario's horizon.
  queue_.drop_events(EventType::kEnd);
  Event end;
  end.due = config_.duration;
  end.type = EventType::kEnd;
  queue_.schedule(end);
  // kPoll: polled scenarios keep (or join) the 15-minute grid; oracle
  // scenarios carry no poll chain.
  if (config_.detection != DetectionMode::kPolled) {
    queue_.drop_events(EventType::kPoll);
  } else if (!queue_.has_event(EventType::kPoll)) {
    Event poll;
    poll.due = (clock_.now() / common::kPollInterval + 1) *
               common::kPollInterval;
    poll.type = EventType::kPoll;
    queue_.schedule(poll);
  }
}

}  // namespace corropt::sim
