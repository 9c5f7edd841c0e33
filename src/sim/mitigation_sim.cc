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
      paths_(topo),
      ctx_{topo,   config_, rng_,   state_,  injector_, controller_,
           paths_, clock_,  queue_, nullptr, {},        {}},
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
constexpr std::uint32_t kMetricsTag = common::snap::tag('M', 'T', 'R', 'X');
constexpr std::uint32_t kObsTag = common::snap::tag('O', 'B', 'S', 'S');

void write_series(common::snap::Writer& w,
                  const std::vector<TimePoint>& series) {
  w.u64(series.size());
  for (const TimePoint& p : series) {
    w.i64(p.time);
    w.f64(p.value);
  }
}

void read_series(common::snap::Reader& r, std::vector<TimePoint>& series) {
  series.resize(r.length());
  for (TimePoint& p : series) {
    p.time = r.i64();
    p.value = r.f64();
  }
}

void write_metrics(common::snap::Writer& w, const SimulationMetrics& m) {
  w.section(kMetricsTag, 1);
  write_series(w, m.penalty_series);
  w.f64(m.integrated_penalty);
  w.u64(m.hourly_penalty.size());
  for (double v : m.hourly_penalty) w.f64(v);
  write_series(w, m.worst_tor_fraction);
  write_series(w, m.disabled_links);
  w.f64(m.mean_tor_fraction);
  w.u64(m.faults_injected);
  w.u64(m.tickets_opened);
  w.u64(m.repair_attempts);
  w.u64(m.first_attempt_successes);
  w.u64(m.first_attempts);
  w.u64(m.redetections);
  w.u64(m.polled_detections);
  w.f64(m.mean_detection_latency_s);
  w.u64(m.false_positive_detections);
  w.u64(m.missed_detections);
  w.u64(m.detection_latencies_s.size());
  for (double v : m.detection_latencies_s) w.f64(v);
  w.f64(m.mean_ticket_resolution_s);
  w.u64(m.maintenance_windows);
  w.u64(m.maintenance_capacity_violations);
  w.f64(m.collateral_link_seconds);
  w.u64(m.undisabled_detections);
}

void read_metrics(common::snap::Reader& r, SimulationMetrics& m) {
  r.expect_section(kMetricsTag);
  read_series(r, m.penalty_series);
  m.integrated_penalty = r.f64();
  m.hourly_penalty.resize(r.length());
  for (double& v : m.hourly_penalty) v = r.f64();
  read_series(r, m.worst_tor_fraction);
  read_series(r, m.disabled_links);
  m.mean_tor_fraction = r.f64();
  m.faults_injected = static_cast<std::size_t>(r.u64());
  m.tickets_opened = static_cast<std::size_t>(r.u64());
  m.repair_attempts = static_cast<std::size_t>(r.u64());
  m.first_attempt_successes = static_cast<std::size_t>(r.u64());
  m.first_attempts = static_cast<std::size_t>(r.u64());
  m.redetections = static_cast<std::size_t>(r.u64());
  m.polled_detections = static_cast<std::size_t>(r.u64());
  m.mean_detection_latency_s = r.f64();
  m.false_positive_detections = static_cast<std::size_t>(r.u64());
  m.missed_detections = static_cast<std::size_t>(r.u64());
  m.detection_latencies_s.resize(r.length());
  for (double& v : m.detection_latencies_s) v = r.f64();
  m.mean_ticket_resolution_s = r.f64();
  m.maintenance_windows = static_cast<std::size_t>(r.u64());
  m.maintenance_capacity_violations = static_cast<std::size_t>(r.u64());
  m.collateral_link_seconds = r.f64();
  m.undisabled_detections = static_cast<std::size_t>(r.u64());
}

// The sink's journal and registry contents travel with the checkpoint
// so a branch's observability continues exactly where the prefix left
// off. The trace recorder is excluded: it is outside the determinism
// contract (like wall-clock timers).
void write_obs(common::snap::Writer& w, const obs::Sink* sink) {
  w.section(kObsTag, 1);
  const bool has_journal = sink != nullptr && sink->journal != nullptr;
  const bool has_registry = sink != nullptr && sink->metrics != nullptr;
  w.boolean(has_journal);
  w.boolean(has_registry);
  if (has_journal) {
    const std::vector<obs::Event> events = sink->journal->snapshot();
    w.u64(events.size());
    for (const obs::Event& e : events) {
      w.u64(e.seq);
      w.i64(e.time);
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.u8(static_cast<std::uint8_t>(e.reason));
      w.u32(e.link.value());
      w.u32(e.sw.value());
      w.u32(e.ticket.value());
      w.f64(e.value);
      w.f64(e.value2);
      w.u64(e.detail0);
      w.u64(e.detail1);
    }
    const std::uint64_t dropped = sink->journal->dropped();
    // next_seq is size + dropped only without clear(); derive it from
    // the newest record instead.
    w.u64(events.empty() ? 0 : events.back().seq + 1);
    w.u64(dropped);
  }
  if (has_registry) {
    const obs::MetricsSnapshot snap = sink->metrics->snapshot();
    w.u64(snap.counters.size());
    for (const auto& c : snap.counters) {
      w.str(c.name);
      w.u64(c.value);
    }
    w.u64(snap.gauges.size());
    for (const auto& g : snap.gauges) {
      w.str(g.name);
      w.f64(g.value);
    }
    w.u64(snap.histograms.size());
    for (const auto& h : snap.histograms) {
      w.str(h.name);
      w.u64(h.bounds.size());
      for (double b : h.bounds) w.f64(b);
      for (std::uint64_t c : h.counts) w.u64(c);
      w.f64(h.sum);
    }
  }
}

void read_obs(common::snap::Reader& r, const obs::Sink* sink) {
  r.expect_section(kObsTag);
  const bool has_journal = r.boolean();
  const bool has_registry = r.boolean();
  if (has_journal) {
    std::vector<obs::Event> events(r.length());
    for (obs::Event& e : events) {
      e.seq = r.u64();
      e.time = r.i64();
      e.kind = static_cast<obs::EventKind>(r.u8());
      e.reason = static_cast<obs::EventReason>(r.u8());
      e.link = common::LinkId(r.u32());
      e.sw = common::SwitchId(r.u32());
      e.ticket = common::TicketId(r.u32());
      e.value = r.f64();
      e.value2 = r.f64();
      e.detail0 = r.u64();
      e.detail1 = r.u64();
    }
    const std::uint64_t next_seq = r.u64();
    const std::uint64_t dropped = r.u64();
    if (sink != nullptr && sink->journal != nullptr) {
      sink->journal->restore(events, next_seq, dropped);
    }
  }
  if (has_registry) {
    obs::MetricsSnapshot snap;
    snap.counters.resize(r.length());
    for (auto& c : snap.counters) {
      c.name = std::string(r.str());
      c.value = r.u64();
    }
    snap.gauges.resize(r.length());
    for (auto& g : snap.gauges) {
      g.name = std::string(r.str());
      g.value = r.f64();
    }
    snap.histograms.resize(r.length());
    for (auto& h : snap.histograms) {
      h.name = std::string(r.str());
      h.bounds.resize(r.length());
      for (double& b : h.bounds) b = r.f64();
      h.counts.resize(h.bounds.size() + 1);
      for (std::uint64_t& c : h.counts) c = r.u64();
      h.sum = r.f64();
      h.count = 0;
      for (std::uint64_t c : h.counts) h.count += c;
    }
    if (sink != nullptr && sink->metrics != nullptr) {
      sink->metrics->restore(snap);
    }
  }
}

}  // namespace

Checkpoint MitigationSimulation::snapshot() const {
  common::snap::Writer w;
  w.section(kSimTag, 1);
  w.i64(clock_.now());
  w.u64(steps_);
  w.u64(next_event_);
  queue_.snapshot_to(w);
  rng_.snapshot_to(w);
  topo_->snapshot_to(w);
  state_.snapshot_to(w);
  injector_.snapshot_to(w);
  controller_.snapshot_to(w);
  detection_.snapshot_to(w);
  maintenance_.snapshot_to(w);
  repair_.snapshot_to(w);
  accountant_.snapshot_to(w);
  sampler_.snapshot_to(w);
  write_metrics(w, metrics_);
  write_obs(w, config_.sink);

  Checkpoint ckpt;
  ckpt.bytes = w.take();
  ckpt.time = clock_.now();
  ckpt.steps = steps_;
  ckpt.trace_cursor = next_event_;
  return ckpt;
}

void MitigationSimulation::restore_run(
    const std::vector<trace::TraceEvent>& events, const Checkpoint& ckpt) {
  metrics_ = SimulationMetrics{};
  finished_ = false;
  ctx_.metrics = &metrics_;
  events_ = &events;

  controller_.set_ticket_callback([this](common::LinkId link) {
    repair_.open_ticket(link, clock_.now());
  });

  common::snap::Reader r(ckpt.bytes);
  r.expect_section(kSimTag);
  clock_.restore_now(r.i64());
  steps_ = r.u64();
  next_event_ = static_cast<std::size_t>(r.u64());
  queue_.restore_from(r);
  rng_.restore_from(r);
  topo_->restore_from(r);
  state_.restore_from(r);
  injector_.restore_from(r);
  controller_.restore_from(r);
  detection_.restore_from(r);
  maintenance_.restore_from(r);
  repair_.restore_from(r);
  accountant_.restore_from(r);
  sampler_.restore_from(r);
  read_metrics(r, metrics_);
  read_obs(r, config_.sink);

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
