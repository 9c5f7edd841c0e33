#include "trace/trace.h"

#include <algorithm>
#include <cassert>

namespace corropt::trace {

namespace {

// Probability that a burst's follow-up fault strikes the seed fault's
// switch rather than elsewhere in its pod.
constexpr double kBurstSameSwitch = 0.6;

}  // namespace

CorruptionTraceGenerator::CorruptionTraceGenerator(
    const topology::Topology& topo, TraceParams params, common::Rng& rng)
    : topo_(&topo), params_(params), rng_(&rng) {}

std::vector<TraceEvent> CorruptionTraceGenerator::generate() {
  assert(params_.faults_per_link_per_day > 0.0);
  assert(params_.duration > 0);
  faults::FaultFactory factory(*topo_, params_.mix, *rng_);

  // Pod membership index for burst targeting.
  std::vector<std::vector<common::LinkId>> pod_links;
  for (const topology::Link& link : topo_->links()) {
    const int pod = topo_->switch_at(link.lower).pod;
    if (pod < 0) continue;
    if (static_cast<std::size_t>(pod) >= pod_links.size()) {
      pod_links.resize(static_cast<std::size_t>(pod) + 1);
    }
    pod_links[static_cast<std::size_t>(pod)].push_back(link.id);
  }

  auto add_fault = [&](std::vector<TraceEvent>& events, common::LinkId link,
                       double time) {
    TraceEvent event;
    event.time = static_cast<SimTime>(time);
    event.fault = factory.make_random_fault(link, event.time);
    events.push_back(std::move(event));
  };

  // Poisson process over the whole link population: exponential
  // inter-arrival times with aggregate rate links * per-link rate.
  const double aggregate_per_second =
      params_.faults_per_link_per_day *
      static_cast<double>(topo_->link_count()) /
      static_cast<double>(common::kDay);
  std::vector<TraceEvent> events;
  double t = rng_->exponential(1.0 / aggregate_per_second);
  while (t < static_cast<double>(params_.duration)) {
    const common::LinkId link(static_cast<common::LinkId::underlying_type>(
        rng_->uniform_index(topo_->link_count())));
    add_fault(events, link, t);

    // Correlated follow-up faults near the seed fault.
    if (params_.p_burst > 0.0 && rng_->bernoulli(params_.p_burst)) {
      const int extra =
          1 + static_cast<int>(rng_->uniform_index(
                  static_cast<std::uint64_t>(params_.burst_max)));
      const topology::Switch& lower =
          topo_->switch_at(topo_->link_at(link).lower);
      for (int i = 0; i < extra; ++i) {
        common::LinkId target = link;
        if (rng_->bernoulli(kBurstSameSwitch) ||
            lower.pod < 0 ||
            pod_links[static_cast<std::size_t>(lower.pod)].empty()) {
          target = lower.uplinks[rng_->uniform_index(lower.uplinks.size())];
        } else {
          const auto& pool = pod_links[static_cast<std::size_t>(lower.pod)];
          target = pool[rng_->uniform_index(pool.size())];
        }
        const double when =
            t + rng_->uniform(0.0, static_cast<double>(kBurstWindow));
        if (when < static_cast<double>(params_.duration)) {
          add_fault(events, target, when);
        }
      }
    }
    t += rng_->exponential(1.0 / aggregate_per_second);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.time < b.time;
            });
  return events;
}

}  // namespace corropt::trace
