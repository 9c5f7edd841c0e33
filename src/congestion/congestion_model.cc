#include "congestion/congestion_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace corropt::congestion {

namespace {

// Baseline diurnal utilization: u(t) = base + amplitude * sin(...) +
// noise, clamped to [0.02, 0.98]. These keep cold links below the loss
// knee.
constexpr double kBaseUtilization = 0.25;
constexpr double kDiurnalAmplitude = 0.15;
constexpr double kUtilizationNoise = 0.05;

// Fraction of pods whose intra-pod (ToR <-> aggregation) links run hot:
// the spatial-locality driver of Figure 4.
constexpr double kHotspotPodFraction = 0.10;
// Fraction of individual switches that, on top of the hot pods, run hot
// on all incident links (scattered hotspots).
constexpr double kHotspotSwitchFraction = 0.003;
// Utilization added to every hot direction.
constexpr double kHotspotExtraUtilization = 0.45;
// Fraction of hot links that are hot in both directions (Figure 5: 72.7%
// of congested links lose packets bidirectionally).
constexpr double kHotspotBidirectional = 0.75;

// Loss curve: no loss at or below the knee; above it the loss rate grows
// as severity * scale * ((u - knee) / (1 - knee))^exponent with lognormal
// temporal jitter. Per-direction severity is itself lognormal, which
// spreads weekly aggregate rates across the Table 1 buckets.
constexpr double kLossScale = 4e-6;
constexpr double kLossExponent = 3.0;
constexpr double kLossJitterSigma = 1.3;  // temporal lognormal jitter
constexpr double kSeveritySigma = 2.0;    // per-direction persistent severity

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

CongestionModel::CongestionModel(const topology::Topology& topo,
                                 common::Rng& rng)
    : seed_(rng()) {
  int max_pod = -1;
  for (const topology::Switch& sw : topo.switches()) {
    max_pod = std::max(max_pod, sw.pod);
  }
  hot_pod_.assign(static_cast<std::size_t>(max_pod + 1), false);
  bool any_hot = false;
  for (std::size_t p = 0; p < hot_pod_.size(); ++p) {
    hot_pod_[p] = rng.bernoulli(kHotspotPodFraction);
    any_hot = any_hot || hot_pod_[p];
  }
  // A DCN always has at least one hot service somewhere; without this,
  // small topologies occasionally draw zero hot pods and show no
  // congestion at all.
  if (!any_hot && !hot_pod_.empty()) {
    hot_pod_[rng.uniform_index(hot_pod_.size())] = true;
  }
  std::vector<bool> hotspot_switch(topo.switch_count(), false);
  for (std::size_t i = 0; i < topo.switch_count(); ++i) {
    hotspot_switch[i] = rng.bernoulli(kHotspotSwitchFraction);
  }

  hot_direction_.assign(topo.direction_count(), false);
  for (const topology::Link& link : topo.links()) {
    const topology::Switch& lower = topo.switch_at(link.lower);
    const topology::Switch& upper = topo.switch_at(link.upper);
    // Hot-pod congestion lives on intra-pod links (both endpoints in the
    // same hot pod); scattered hotspot switches heat every incident link.
    const bool pod_hot = lower.pod >= 0 && lower.pod == upper.pod &&
                         is_hot_pod(lower.pod);
    const bool switch_hot = hotspot_switch[lower.id.index()] ||
                            hotspot_switch[upper.id.index()];
    if (!pod_hot && !switch_hot) continue;
    const bool both = rng.bernoulli(kHotspotBidirectional);
    const bool up_hot = both || rng.bernoulli(0.5);
    const auto up = topology::direction_id(link.id,
                                           topology::LinkDirection::kUp);
    const auto down = topology::direction_id(link.id,
                                             topology::LinkDirection::kDown);
    hot_direction_[up.index()] = up_hot;
    hot_direction_[down.index()] = both || !up_hot;
  }

  phase_.resize(topo.direction_count());
  for (double& p : phase_) {
    p = rng.uniform(0.0, 2.0 * std::numbers::pi);
  }
  severity_.resize(topo.direction_count());
  for (double& s : severity_) {
    s = std::exp(kSeveritySigma * rng.normal());
  }
}

double CongestionModel::stable_noise(DirectionId dir, SimTime t,
                                     unsigned salt) const {
  const auto epoch = static_cast<std::uint64_t>(t / common::kPollInterval);
  std::uint64_t h = seed_;
  h = mix(h ^ (static_cast<std::uint64_t>(dir.value()) << 20));
  h = mix(h ^ epoch);
  h = mix(h ^ salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double CongestionModel::utilization_upper_bound(DirectionId dir) const {
  double u = kBaseUtilization + kDiurnalAmplitude + kUtilizationNoise;
  if (is_hot(dir)) u += kHotspotExtraUtilization;
  return std::clamp(u, 0.02, 0.98);
}

double CongestionModel::utilization(DirectionId dir, SimTime t) const {
  const double day_fraction =
      static_cast<double>(t % common::kDay) / static_cast<double>(common::kDay);
  double u = kBaseUtilization +
             kDiurnalAmplitude *
                 std::sin(2.0 * std::numbers::pi * day_fraction +
                          phase_[dir.index()]);
  if (is_hot(dir)) u += kHotspotExtraUtilization;
  u += kUtilizationNoise * (2.0 * stable_noise(dir, t, 1) - 1.0);
  return std::clamp(u, 0.02, 0.98);
}

double CongestionModel::loss_rate(DirectionId dir, double utilization,
                                  SimTime t) const {
  if (utilization <= kKneeUtilization) return 0.0;
  const double headroom = 1.0 - kKneeUtilization;
  const double excess = (utilization - kKneeUtilization) / headroom;
  // Deterministic lognormal jitter (Box-Muller over stable uniforms) so
  // the loss series is reproducible per (direction, epoch).
  const double u1 = std::max(stable_noise(dir, t, 2), 1e-12);
  const double u2 = stable_noise(dir, t, 3);
  const double gauss = std::sqrt(-2.0 * std::log(u1)) *
                       std::cos(2.0 * std::numbers::pi * u2);
  const double jitter = std::exp(kLossJitterSigma * gauss);
  const double rate = severity_[dir.index()] * kLossScale *
                      std::pow(excess, kLossExponent) * jitter;
  return std::min(rate, 0.5);
}

}  // namespace corropt::congestion
