#include "faults/fault_factory.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/lossy.h"

namespace corropt::faults {

namespace {

// Table 1 corruption-column bucket weights for loss-rate sampling:
// [1e-8,1e-5), [1e-5,1e-4), [1e-4,1e-3), [1e-3, kMaxLossRate).
constexpr std::array<double, 4> kBucketWeights = {47.23, 18.43, 21.66, 12.67};
constexpr double kMaxLossRate = 2e-2;

// Fault-induced attenuation range (dB). With the default optical tech
// (nominal Rx -4 dBm, threshold -10 dBm) anything above 6 dB classifies
// as Low.
constexpr double kMinAttenuationDb = 8.0;
constexpr double kMaxAttenuationDb = 25.0;

// TxPower drop range for decaying transmitters, chosen so both Tx and the
// resulting Rx classify Low per Table 2, and the further decay per day.
constexpr double kMinTxDropDb = 6.5;
constexpr double kMaxTxDropDb = 12.0;
constexpr double kTxDecayDbPerDay = 0.15;

// Links hit by one shared-component failure when the link has no
// breakout group (switch-backplane model).
constexpr std::size_t kSharedComponentWidth = 4;

// Fraction of transceiver faults that are merely loose (fixed by
// reseating) rather than bad (needing replacement).
constexpr double kLooseTransceiverFraction = 0.6;

}  // namespace

using topology::LinkDirection;

FaultFactory::FaultFactory(const topology::Topology& topo,
                           FaultMixParams params, common::Rng& rng)
    : topo_(&topo), params_(params), rng_(&rng) {}

RootCause FaultFactory::sample_root_cause() {
  const std::array<double, 5> weights = {
      params_.p_contamination, params_.p_damaged_fiber,
      params_.p_decaying_transmitter, params_.p_bad_transceiver,
      params_.p_shared_component};
  return kAllRootCauses[rng_->weighted_index(weights)];
}

double FaultFactory::sample_loss_rate() {
  static constexpr std::array<double, 5> kEdges = {
      common::kLossyThreshold, 1e-5, 1e-4, 1e-3, 0.0};
  const std::size_t bucket = rng_->weighted_index(kBucketWeights);
  const double lo = kEdges[bucket];
  const double hi =
      bucket + 1 < 4 ? kEdges[bucket + 1] : kMaxLossRate;
  return rng_->log_uniform(lo, hi);
}

DirectionId FaultFactory::random_direction(LinkId link) {
  return topology::direction_id(
      link, rng_->bernoulli(0.5) ? LinkDirection::kUp : LinkDirection::kDown);
}

Fault FaultFactory::make_random_fault(LinkId link, SimTime onset) {
  return make_fault(link, sample_root_cause(), onset);
}

Fault FaultFactory::make_fault(LinkId link, RootCause cause, SimTime onset) {
  switch (cause) {
    case RootCause::kConnectorContamination:
      return make_contamination(link, onset);
    case RootCause::kDamagedFiber:
      return make_damaged_fiber(link, onset);
    case RootCause::kDecayingTransmitter:
      return make_decaying_transmitter(link, onset);
    case RootCause::kBadOrLooseTransceiver:
      return make_bad_transceiver(link, onset);
    case RootCause::kSharedComponent:
      return make_shared_component(link, onset);
  }
  assert(false && "unreachable");
  return {};
}

Fault FaultFactory::make_contamination(LinkId link, SimTime onset) {
  Fault fault;
  fault.cause = RootCause::kConnectorContamination;
  fault.links = {link};
  fault.onset = onset;
  fault.fixing_actions = {RepairAction::kCleanFiber,
                          RepairAction::kReplaceFiber};

  DirectionEffect effect;
  effect.direction = random_direction(link);
  effect.corruption_rate = sample_loss_rate();
  if (!rng_->bernoulli(params_.p_back_reflection)) {
    // Ordinary contamination: attenuation drops RxPower on the dirty
    // direction; the back-reflection variant keeps RxPower high.
    effect.extra_attenuation_db =
        rng_->uniform(kMinAttenuationDb, kMaxAttenuationDb);
  }
  fault.effects = {effect};
  return fault;
}

Fault FaultFactory::make_damaged_fiber(LinkId link, SimTime onset) {
  Fault fault;
  fault.cause = RootCause::kDamagedFiber;
  fault.links = {link};
  fault.onset = onset;
  fault.fixing_actions = {RepairAction::kReplaceFiber};

  // A bend leaks signal in both directions at once (Figure 9): both
  // RxPowers drop together. Corruption crosses the lossy threshold in
  // both directions only for a minority of bends; usually one receiver
  // still decodes (see FaultMixParams::p_fiber_bidirectional).
  const double attenuation =
      rng_->uniform(kMinAttenuationDb, kMaxAttenuationDb);
  const double base_rate = sample_loss_rate();
  const bool bidirectional = rng_->bernoulli(params_.p_fiber_bidirectional);
  const LinkDirection primary =
      rng_->bernoulli(0.5) ? LinkDirection::kUp : LinkDirection::kDown;
  for (LinkDirection dir : {LinkDirection::kUp, LinkDirection::kDown}) {
    DirectionEffect effect;
    effect.direction = topology::direction_id(link, dir);
    effect.extra_attenuation_db = attenuation * rng_->uniform(0.9, 1.1);
    if (dir == primary || bidirectional) {
      // Clamp above the lossy threshold so monitoring always notices the
      // corrupting directions this fault is meant to create.
      effect.corruption_rate = std::max(
          common::kLossyThreshold, base_rate * rng_->uniform(0.8, 1.25));
    }
    fault.effects.push_back(effect);
  }
  return fault;
}

Fault FaultFactory::make_decaying_transmitter(LinkId link, SimTime onset) {
  Fault fault;
  fault.cause = RootCause::kDecayingTransmitter;
  fault.links = {link};
  fault.onset = onset;
  fault.fixing_actions = {RepairAction::kReplaceRemoteTransceiver};

  DirectionEffect effect;
  effect.direction = random_direction(link);
  effect.tx_power_delta_db = -rng_->uniform(kMinTxDropDb, kMaxTxDropDb);
  effect.tx_decay_db_per_day = kTxDecayDbPerDay;
  effect.corruption_rate = sample_loss_rate();
  fault.effects = {effect};
  return fault;
}

Fault FaultFactory::make_bad_transceiver(LinkId link, SimTime onset) {
  Fault fault;
  fault.cause = RootCause::kBadOrLooseTransceiver;
  fault.links = {link};
  fault.onset = onset;
  if (rng_->bernoulli(kLooseTransceiverFraction)) {
    fault.fixing_actions = {RepairAction::kReseatTransceiver,
                            RepairAction::kReplaceTransceiver};
  } else {
    fault.fixing_actions = {RepairAction::kReplaceTransceiver};
  }

  // Powers stay healthy; decoding fails anyway (Section 4, root cause 4).
  DirectionEffect effect;
  effect.direction = random_direction(link);
  effect.corruption_rate = sample_loss_rate();
  fault.effects = {effect};
  return fault;
}

Fault FaultFactory::make_shared_component(LinkId link, SimTime onset) {
  Fault fault;
  fault.cause = RootCause::kSharedComponent;
  fault.onset = onset;
  fault.fixing_actions = {RepairAction::kReplaceSharedComponent};

  // A breakout-cable fault strikes the whole bundle; a backplane fault
  // strikes a run of uplinks on the same switch.
  std::vector<LinkId> affected = topo_->breakout_peers(link);
  if (affected.size() < 2) {
    affected = {link};
    const auto& uplinks = topo_->switch_at(topo_->link_at(link).lower).uplinks;
    for (LinkId sibling : uplinks) {
      if (sibling == link) continue;
      affected.push_back(sibling);
      if (affected.size() >= kSharedComponentWidth) break;
    }
  }
  fault.links = affected;

  // Co-located links corrupt with similar loss rates (Section 4, root
  // cause 5) and healthy optics.
  const double base_rate = sample_loss_rate();
  for (LinkId affected_link : affected) {
    DirectionEffect effect;
    effect.direction =
        topology::direction_id(affected_link, LinkDirection::kUp);
    effect.corruption_rate = std::max(
        common::kLossyThreshold, base_rate * rng_->uniform(0.8, 1.25));
    fault.effects.push_back(effect);
  }
  return fault;
}

}  // namespace corropt::faults
