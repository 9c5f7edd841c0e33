#include "sim/detection_pipeline.h"

#include <vector>

#include "obs/journal.h"

namespace corropt::sim {

DetectionPipeline::DetectionPipeline(SimContext& ctx)
    : ctx_(ctx), obs_detail_(ctx.config.backend.detailed_obs()) {
  detect::BackendEnv env;
  env.topo = &ctx.topo;
  env.state = &ctx.state;
  env.rng = &ctx.rng;
  env.seed = ctx.config.seed;
  env.poll_utilization = ctx.config.poll_utilization;
  backend_ =
      detect::make_backend(ctx.config.backend, ctx.config.detector, env);
  ctx_.queue.set_handler(EventType::kPoll,
                         [this](const Event& event) { handle_poll(event); });
}

void DetectionPipeline::attach_sink(obs::Sink* sink) {
  backend_->attach_sink(sink);
  if (!obs_detail_ || sink == nullptr || sink->metrics == nullptr) {
    obs_verdicts_ = obs::Counter();
    obs_clears_ = obs::Counter();
    obs_false_positives_ = obs::Counter();
    obs_missed_ = obs::Counter();
    obs_latency_ = obs::Histogram();
    return;
  }
  obs_verdicts_ = sink->metrics->counter("detect.verdicts");
  obs_clears_ = sink->metrics->counter("detect.clears");
  obs_false_positives_ = sink->metrics->counter("detect.false_positives");
  obs_missed_ = sink->metrics->counter("detect.missed");
  obs_latency_ = sink->metrics->histogram(
      "detect.latency_s", {900, 1800, 3600, 7200, 14400, 28800, 86400});
}

void DetectionPipeline::start() {
  if (ctx_.config.detection != DetectionMode::kPolled) return;
  Event poll;
  poll.due = common::kPollInterval;
  poll.type = EventType::kPoll;
  ctx_.queue.schedule(poll);
}

void DetectionPipeline::on_fault(const faults::Fault& fault) {
  SimulationMetrics& metrics = *ctx_.metrics;
  for (common::LinkId link : fault.links) {
    const double rate = ctx_.state.link_corruption_rate(link);
    if (rate < core::kLossyThreshold) continue;
    if (ctx_.config.detection == DetectionMode::kPolled) {
      // The monitoring pipeline has to notice on its own.
      pending_detection_.emplace(link, ctx_.clock.now());
      continue;
    }
    const bool disabled = ctx_.controller.on_corruption_detected(link, rate);
    if (!disabled && ctx_.topo.is_enabled(link)) {
      ++metrics.undisabled_detections;
    }
  }
}

void DetectionPipeline::expect_redetection(common::LinkId link, SimTime now) {
  backend_->reset(link);
  pending_detection_[link] = now;
}

void DetectionPipeline::on_repair_success(common::LinkId link) {
  backend_->reset(link);
  pending_detection_.erase(link);
}

void DetectionPipeline::reset(common::LinkId link) { backend_->reset(link); }

void DetectionPipeline::finalize(SimulationMetrics& metrics) const {
  if (metrics.polled_detections > 0) {
    metrics.mean_detection_latency_s /=
        static_cast<double>(metrics.polled_detections);
  }
}

void DetectionPipeline::handle_verdict(const detect::Verdict& verdict,
                                       SimTime now) {
  SimulationMetrics& metrics = *ctx_.metrics;
  if (verdict.kind == detect::Verdict::Kind::kCorrupting) {
    ++metrics.polled_detections;
    std::uint64_t latency_s = 0;
    bool had_pending = false;
    const auto pending = pending_detection_.find(verdict.link);
    if (pending != pending_detection_.end()) {
      metrics.mean_detection_latency_s +=
          static_cast<double>(now - pending->second);
      latency_s = static_cast<std::uint64_t>(now - pending->second);
      had_pending = true;
      metrics.detection_latencies_s.push_back(static_cast<double>(latency_s));
      pending_detection_.erase(pending);
    }
    // Ground truth is one state lookup away in simulation: a verdict on
    // a link below the lossy threshold is a backend false positive.
    const bool false_positive =
        ctx_.state.link_corruption_rate(verdict.link) <
        ctx_.config.detector.lossy_threshold;
    if (false_positive) ++metrics.false_positive_detections;
    {
      obs::Event journal_event;
      journal_event.kind = obs::EventKind::kPolledDetection;
      journal_event.link = verdict.link;
      journal_event.value = verdict.loss_rate;
      journal_event.detail0 = latency_s;
      ctx_.emit(journal_event);
    }
    if (obs_detail_) {
      obs_verdicts_.add();
      if (false_positive) obs_false_positives_.add();
      if (had_pending) obs_latency_.record(static_cast<double>(latency_s));
      obs::Event journal_event;
      journal_event.kind = obs::EventKind::kDetectionVerdict;
      journal_event.reason = obs::EventReason::kSucceeded;
      journal_event.link = verdict.link;
      journal_event.value = verdict.loss_rate;
      journal_event.value2 = false_positive ? 1.0 : 0.0;
      journal_event.detail0 = latency_s;
      journal_event.detail1 = static_cast<std::uint64_t>(backend_->kind());
      ctx_.emit(journal_event);
    }
    const bool disabled =
        ctx_.controller.on_corruption_detected(verdict.link,
                                               verdict.loss_rate);
    if (!disabled && ctx_.topo.is_enabled(verdict.link)) {
      ++metrics.undisabled_detections;
    }
  } else {
    if (obs_detail_) {
      obs_clears_.add();
      obs::Event journal_event;
      journal_event.kind = obs::EventKind::kDetectionVerdict;
      journal_event.link = verdict.link;
      journal_event.value = verdict.loss_rate;
      journal_event.detail1 = static_cast<std::uint64_t>(backend_->kind());
      ctx_.emit(journal_event);
    }
    ctx_.controller.on_corruption_cleared(verdict.link);
  }
}

void DetectionPipeline::handle_poll(const Event& event) {
  ctx_.injector.advance(ctx_.clock.now());
  SimulationMetrics& metrics = *ctx_.metrics;
  const SimTime now = ctx_.clock.now();

  // Suspect set: links with an active fault, plus links the pipeline or
  // controller still believes corrupting (to observe their recovery).
  // Counter-based backends gather fabric-wide evidence and ignore it.
  std::vector<common::LinkId> suspects;
  auto add = [this, &suspects](common::LinkId link) {
    char& mark = ctx_.link_mark[link.index()];
    if (mark != 0) return;
    mark = 1;
    suspects.push_back(link);
  };
  for (const faults::Fault* fault : ctx_.injector.active_faults()) {
    for (common::LinkId link : fault->links) add(link);
  }
  for (const auto& [link, entry] : ctx_.controller.corruption().entries()) {
    add(link);
  }
  for (const auto& [link, onset] : pending_detection_) add(link);
  for (common::LinkId link : suspects) ctx_.link_mark[link.index()] = 0;

  // Verdicts are handled as they are produced: the controller may
  // disable a link mid-cycle, and later samples of the same cycle must
  // observe that (disabled links carry no traffic).
  backend_->poll(now, suspects,
                 [this, now](const detect::Verdict& verdict) {
                   handle_verdict(verdict, now);
                 });

  // Drop pending entries whose fault disappeared before detection (e.g.
  // a shared-component repair through a peer's ticket): the backend
  // never noticed them — false negatives.
  for (auto it = pending_detection_.begin(); it != pending_detection_.end();) {
    if (ctx_.injector.faults_on_link(it->first).empty()) {
      ++metrics.missed_detections;
      obs_missed_.add();
      it = pending_detection_.erase(it);
    } else {
      ++it;
    }
  }

  Event next = event;
  next.due = event.due + common::kPollInterval;
  ctx_.queue.schedule(next);
}

void DetectionPipeline::snapshot_to(common::snap::Writer& w) const {
  w.section(common::snap::tag('D', 'P', 'I', 'P'), 1);
  w.u64(pending_detection_.size());
  for (const auto& [link, onset] : pending_detection_) {
    w.u32(link.value());
    w.i64(onset);
  }
  w.u8(static_cast<std::uint8_t>(backend_->kind()));
  common::snap::Writer payload;
  backend_->snapshot_to(payload);
  const std::string bytes = payload.take();
  w.blob(bytes);
}

void DetectionPipeline::restore_from(common::snap::Reader& r) {
  r.expect_section(common::snap::tag('D', 'P', 'I', 'P'));
  pending_detection_.clear();
  const std::uint64_t pending = r.u64();
  for (std::uint64_t i = 0; i < pending; ++i) {
    const common::LinkId link(r.u32());
    const SimTime onset = r.i64();
    pending_detection_.emplace(link, onset);
  }
  const auto kind = static_cast<detect::BackendKind>(r.u8());
  const std::string_view payload = r.blob();
  if (kind == backend_->kind()) {
    common::snap::Reader backend_reader(payload);
    backend_->restore_from(backend_reader);
  }
  // Different kind: the counterfactual backend keeps its fresh state;
  // there is no meaningful translation between evidence formats.
}

}  // namespace corropt::sim
