#include "sim/penalty_accountant.h"

#include <algorithm>
#include <cassert>

#include "common/lossy.h"
#include "obs/journal.h"

namespace corropt::sim {

void PenaltyAccountant::integrate_until(SimTime t) {
  SimulationMetrics& metrics = *ctx_.metrics;
  const SimTime from = ctx_.clock.now();
  assert(t >= from);
  if (t == from) return;
  const double span = static_cast<double>(t - from);
  metrics.integrated_penalty += penalty_rate_ * span;

  // Distribute into hourly bins for ratio time series.
  SimTime cursor = from;
  while (cursor < t) {
    const SimTime bin_end = (cursor / common::kHour + 1) * common::kHour;
    const SimTime step = std::min(bin_end, t) - cursor;
    const auto bin = static_cast<std::size_t>(cursor / common::kHour);
    if (bin >= metrics.hourly_penalty.size()) {
      metrics.hourly_penalty.resize(bin + 1, 0.0);
    }
    metrics.hourly_penalty[bin] += penalty_rate_ * static_cast<double>(step);
    cursor += step;
  }
  // Keep the journal clock in lockstep with simulation time (the clock
  // forwards `now` to the sink).
  ctx_.clock.advance_to(t);
}

double PenaltyAccountant::true_penalty_rate() {
  const core::PenaltyFunction penalty = core::PenaltyFunction::linear();
  double total = 0.0;
  for (common::LinkId link : ctx_.injector.affected_links()) {
    if (!ctx_.topo.is_enabled(link)) continue;
    const double rate = ctx_.state.link_corruption_rate(link);
    if (rate >= common::kLossyThreshold) total += penalty(rate);
  }
  return total;
}

void PenaltyAccountant::refresh() { penalty_rate_ = true_penalty_rate(); }

void PenaltyAccountant::record_sample() {
  ctx_.metrics->penalty_series.push_back({ctx_.clock.now(), penalty_rate_});
  obs::Event event;
  event.kind = obs::EventKind::kPenaltySample;
  event.value = penalty_rate_;
  ctx_.emit(event);
}

}  // namespace corropt::sim
