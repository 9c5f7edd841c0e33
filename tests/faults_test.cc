#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "fault_oracles.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "telemetry/network_state.h"
#include "topology/fat_tree.h"

namespace corropt::faults {
namespace {

using topology::LinkDirection;
using topology::Topology;

struct Fixture {
  Fixture() : topo(topology::build_fat_tree(4)), state(topo, tech), rng(7) {}

  Topology topo;
  telemetry::OpticalTech tech = telemetry::default_tech();
  telemetry::NetworkState state;
  common::Rng rng;
};

TEST(FaultFactory, LossRatesFollowTable1Buckets) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  std::array<int, 4> buckets{};
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double rate = factory.sample_loss_rate();
    ASSERT_GE(rate, 1e-8);
    ASSERT_LT(rate, 2e-2);
    if (rate < 1e-5) {
      ++buckets[0];
    } else if (rate < 1e-4) {
      ++buckets[1];
    } else if (rate < 1e-3) {
      ++buckets[2];
    } else {
      ++buckets[3];
    }
  }
  EXPECT_NEAR(buckets[0] / double(kDraws), 0.4723, 0.02);
  EXPECT_NEAR(buckets[1] / double(kDraws), 0.1843, 0.02);
  EXPECT_NEAR(buckets[2] / double(kDraws), 0.2166, 0.02);
  EXPECT_NEAR(buckets[3] / double(kDraws), 0.1267, 0.02);
}

TEST(FaultFactory, RootCauseMixMatchesParams) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  std::map<RootCause, int> counts;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) counts[factory.sample_root_cause()]++;
  EXPECT_NEAR(counts[RootCause::kConnectorContamination] / double(kDraws),
              0.37, 0.02);
  EXPECT_NEAR(counts[RootCause::kDamagedFiber] / double(kDraws), 0.30, 0.02);
  EXPECT_NEAR(counts[RootCause::kBadOrLooseTransceiver] / double(kDraws),
              0.21, 0.02);
  EXPECT_NEAR(counts[RootCause::kSharedComponent] / double(kDraws), 0.112,
              0.02);
  EXPECT_GT(counts[RootCause::kDecayingTransmitter], 0);
  EXPECT_LT(counts[RootCause::kDecayingTransmitter] / double(kDraws), 0.03);
}

// Table 2 symptom checks: inject each root cause and verify the H/L
// power signature the paper reports.
TEST(FaultSymptoms, ContaminationLowersRxOneDirection) {
  Fixture f;
  FaultMixParams params;
  params.p_back_reflection = 0.0;  // Force the attenuating variant.
  FaultFactory factory(f.topo, params, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(0);
  injector.inject(
      factory.make_fault(link, RootCause::kConnectorContamination, 0));

  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  const bool up_low = f.state.rx_is_low(up);
  const bool down_low = f.state.rx_is_low(down);
  EXPECT_NE(up_low, down_low) << "exactly one direction has low RxPower";
  // TxPower stays high on both sides.
  EXPECT_FALSE(f.state.tx_is_low(up));
  EXPECT_FALSE(f.state.tx_is_low(down));
  // Corruption only on the dirty direction.
  const auto dirty = up_low ? up : down;
  EXPECT_GE(f.state.corruption_rate(dirty), 1e-8);
  EXPECT_DOUBLE_EQ(f.state.corruption_rate(topology::opposite(dirty)), 0.0);
}

TEST(FaultSymptoms, BackReflectionContaminationKeepsRxHigh) {
  Fixture f;
  FaultMixParams params;
  params.p_back_reflection = 1.0;
  FaultFactory factory(f.topo, params, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(0);
  injector.inject(
      factory.make_fault(link, RootCause::kConnectorContamination, 0));
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  EXPECT_FALSE(f.state.rx_is_low(up));
  EXPECT_FALSE(f.state.rx_is_low(down));
  EXPECT_TRUE(f.state.link_is_corrupting(link));
}

TEST(FaultSymptoms, DamagedFiberLowersRxBothDirections) {
  Fixture f;
  FaultMixParams params;
  params.p_fiber_bidirectional = 1.0;
  FaultFactory factory(f.topo, params, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(1);
  injector.inject(factory.make_fault(link, RootCause::kDamagedFiber, 0));
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  EXPECT_TRUE(f.state.rx_is_low(up));
  EXPECT_TRUE(f.state.rx_is_low(down));
  EXPECT_FALSE(f.state.tx_is_low(up));
  EXPECT_FALSE(f.state.tx_is_low(down));
  // Both directions corrupt (Figure 9).
  EXPECT_GE(f.state.corruption_rate(up), 1e-8);
  EXPECT_GE(f.state.corruption_rate(down), 1e-8);
}

TEST(FaultSymptoms, DamagedFiberUsuallyCorruptsOneDirection) {
  // Both RxPowers drop, but corruption is bidirectional for only a
  // quarter of bends by default (matching the 8.2% bidirectional share
  // of Section 3 given the Table 2 root-cause mix).
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  int bidirectional = 0;
  constexpr int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    const Fault fault = factory.make_fault(common::LinkId(1),
                                           RootCause::kDamagedFiber, 0);
    int corrupting_dirs = 0;
    for (const DirectionEffect& e : fault.effects) {
      EXPECT_GT(e.extra_attenuation_db, 0.0);
      corrupting_dirs += e.corruption_rate >= 1e-8;
    }
    EXPECT_GE(corrupting_dirs, 1);
    bidirectional += corrupting_dirs == 2;
  }
  EXPECT_NEAR(bidirectional / double(kTrials), 0.25, 0.04);
}

TEST(FaultSymptoms, DecayingTransmitterLowersTxAndRx) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(2);
  injector.inject(
      factory.make_fault(link, RootCause::kDecayingTransmitter, 0));
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  const auto dying = f.state.tx_is_low(up) ? up : down;
  EXPECT_TRUE(f.state.tx_is_low(dying));
  EXPECT_TRUE(f.state.rx_is_low(dying));
  EXPECT_GE(f.state.corruption_rate(dying), 1e-8);
  EXPECT_FALSE(f.state.tx_is_low(topology::opposite(dying)));
}

TEST(FaultSymptoms, DecayProgressesOverTime) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(2);
  injector.inject(
      factory.make_fault(link, RootCause::kDecayingTransmitter, 0));
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  const auto dying = f.state.tx_is_low(up) ? up : down;
  const double tx_at_onset = f.state.tx_power_dbm(dying);
  injector.advance(30 * common::kDay);
  const double tx_after = f.state.tx_power_dbm(dying);
  EXPECT_LT(tx_after, tx_at_onset);
  EXPECT_NEAR(tx_at_onset - tx_after, 30 * 0.15, 1e-9);
}

TEST(FaultSymptoms, BadTransceiverKeepsPowersHealthy) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(3);
  injector.inject(
      factory.make_fault(link, RootCause::kBadOrLooseTransceiver, 0));
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  EXPECT_FALSE(f.state.rx_is_low(up));
  EXPECT_FALSE(f.state.rx_is_low(down));
  EXPECT_FALSE(f.state.tx_is_low(up));
  EXPECT_FALSE(f.state.tx_is_low(down));
  EXPECT_TRUE(f.state.link_is_corrupting(link));
}

TEST(FaultSymptoms, SharedComponentHitsSiblingsWithSimilarRates) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link = f.topo.tors().empty()
                                  ? common::LinkId(0)
                                  : f.topo.switch_at(f.topo.tors()[0])
                                        .uplinks.front();
  const Fault fault =
      factory.make_fault(link, RootCause::kSharedComponent, 0);
  EXPECT_GT(fault.links.size(), 1u);
  // All affected links share the same lower switch.
  const auto lower = f.topo.link_at(fault.links.front()).lower;
  for (common::LinkId affected : fault.links) {
    EXPECT_EQ(f.topo.link_at(affected).lower, lower);
  }
  injector.inject(fault);
  double min_rate = 1.0, max_rate = 0.0;
  for (common::LinkId affected : fault.links) {
    const double rate = f.state.link_corruption_rate(affected);
    EXPECT_GE(rate, 1e-8);
    min_rate = std::min(min_rate, rate);
    max_rate = std::max(max_rate, rate);
    // Optics healthy on every affected link.
    EXPECT_FALSE(f.state.rx_is_low(
        topology::direction_id(affected, LinkDirection::kUp)));
  }
  EXPECT_LT(max_rate / min_rate, 2.0) << "similar loss rates (Section 4)";
}

TEST(FaultSymptoms, SharedComponentUsesBreakoutGroups) {
  Fixture f;
  f.topo.assign_breakout_groups(2, /*lower_level=*/0);
  telemetry::NetworkState state(f.topo, f.tech);
  FaultFactory factory(f.topo, {}, f.rng);
  const common::LinkId link(0);
  const Fault fault =
      factory.make_fault(link, RootCause::kSharedComponent, 0);
  EXPECT_EQ(fault.links.size(), 2u);  // The breakout bundle, not 4.
  EXPECT_EQ(fault.links, f.topo.breakout_peers(link));
}

TEST(Injector, ClearRestoresPristineState) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(4);
  const auto id =
      injector.inject(factory.make_fault(link, RootCause::kDamagedFiber, 0));
  EXPECT_TRUE(f.state.link_is_corrupting(link));
  injector.clear(id);
  EXPECT_FALSE(f.state.link_is_corrupting(link));
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  EXPECT_DOUBLE_EQ(f.state.rx_power_dbm(up), -4.0);
  EXPECT_EQ(injector.fault(id), nullptr);
  EXPECT_TRUE(std::ranges::empty(injector.affected_links()));
}

TEST(Injector, ConcurrentFaultsCompose) {
  Fixture f;
  FaultMixParams params;
  params.p_back_reflection = 0.0;
  FaultFactory factory(f.topo, params, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(5);
  const auto a =
      injector.inject(factory.make_fault(link, RootCause::kDamagedFiber, 0));
  const double rate_one = f.state.link_corruption_rate(link);
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const double atten_one = f.state.direction(up).extra_attenuation_db;
  injector.inject(
      factory.make_fault(link, RootCause::kConnectorContamination, 0));
  EXPECT_GE(f.state.link_corruption_rate(link), rate_one);
  EXPECT_EQ(injector.faults_on_link(link).size(), 2u);
  const double atten_both = f.state.direction(up).extra_attenuation_db;
  EXPECT_GE(atten_both, atten_one);
  // Clearing the first fault removes exactly its contribution, leaving
  // the contamination fault's effects (if any landed on this direction).
  injector.clear(a);
  EXPECT_TRUE(f.state.link_is_corrupting(link));
  const double atten_left = f.state.direction(up).extra_attenuation_db;
  EXPECT_NEAR(atten_left, atten_both - atten_one, 1e-9);
}

TEST(Injector, TryRepairOnlyMatchingAction) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  const common::LinkId link(6);
  const auto id =
      injector.inject(factory.make_fault(link, RootCause::kDamagedFiber, 0));
  EXPECT_FALSE(injector.try_repair(id, RepairAction::kCleanFiber));
  EXPECT_TRUE(f.state.link_is_corrupting(link));
  EXPECT_TRUE(injector.try_repair(id, RepairAction::kReplaceFiber));
  EXPECT_FALSE(f.state.link_is_corrupting(link));
  // Repairing an already-cleared fault is a vacuous success.
  EXPECT_TRUE(injector.try_repair(id, RepairAction::kCleanFiber));
}

TEST(Injector, FaultAccessors) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  const auto id = injector.inject(
      factory.make_fault(common::LinkId(7), RootCause::kDamagedFiber, 5));
  const Fault* fault = injector.fault(id);
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->cause, RootCause::kDamagedFiber);
  EXPECT_EQ(fault->onset, 5);
  EXPECT_GT(testing::peak_corruption_rate(*fault), 0.0);
  EXPECT_EQ(testing::affected_links(injector),
            std::vector<common::LinkId>{common::LinkId(7)});
  EXPECT_EQ(injector.fault(common::FaultId(99)), nullptr);
}

// The injector's id-ordered fault store and per-link index must answer
// exactly what a brute-force scan of the live faults would: the live
// faults and no others, and per link the ids of the faults listing it,
// in id order. Checked after every inject (shared-component faults span
// several links) and clear, and again after a snapshot/restore.
std::vector<FaultId> scan_link(const std::map<FaultId, Fault>& live,
                               common::LinkId link) {
  std::vector<FaultId> ids;
  for (const auto& [id, fault] : live) {
    if (std::find(fault.links.begin(), fault.links.end(), link) !=
        fault.links.end()) {
      ids.push_back(id);
    }
  }
  return ids;
}

void expect_matches_scan(const FaultInjector& injector,
                         const std::map<FaultId, Fault>& live,
                         std::size_t ids_issued, std::size_t link_count,
                         const std::string& when) {
  for (std::size_t i = 0; i < ids_issued; ++i) {
    const FaultId id(static_cast<FaultId::underlying_type>(i));
    const Fault* fault = injector.fault(id);
    const auto mirrored = live.find(id);
    ASSERT_EQ(fault != nullptr, mirrored != live.end())
        << when << ", fault " << i;
    if (fault != nullptr) {
      EXPECT_EQ(fault->links, mirrored->second.links) << when;
    }
  }
  for (std::size_t i = 0; i < link_count; ++i) {
    const common::LinkId link(
        static_cast<common::LinkId::underlying_type>(i));
    const std::span<const FaultId> indexed = injector.faults_on_link(link);
    EXPECT_EQ(std::vector<FaultId>(indexed.begin(), indexed.end()),
              scan_link(live, link))
        << when << ", link " << i;
  }
}

TEST(Injector, OrderAndLinkIndexMatchBruteForceScan) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  std::map<FaultId, Fault> live;
  std::size_t issued = 0;
  std::size_t shared = 0;
  for (int op = 0; op < 120; ++op) {
    // Mostly injects, concentrated on a few links so faults pile up on
    // one link, with shared-component faults forced every fourth time.
    if (live.empty() || f.rng.uniform_index(3) != 0) {
      const common::LinkId link(static_cast<common::LinkId::underlying_type>(
          f.rng.uniform_index(8)));
      Fault fault =
          op % 4 == 0
              ? factory.make_fault(link, RootCause::kSharedComponent, op)
              : factory.make_random_fault(link, op);
      if (fault.links.size() > 1) ++shared;
      const FaultId id = injector.inject(fault);
      issued = id.value() + 1;
      fault.id = id;
      live.emplace(id, std::move(fault));
      expect_matches_scan(injector, live, issued, f.topo.link_count(),
                          "after inject " + std::to_string(id.value()));
    } else {
      auto victim = live.begin();
      std::advance(victim, static_cast<long>(
                               f.rng.uniform_index(live.size())));
      const FaultId id = victim->first;
      injector.clear(id);
      live.erase(victim);
      expect_matches_scan(injector, live, issued, f.topo.link_count(),
                          "after clear " + std::to_string(id.value()));
    }
  }
  ASSERT_GT(shared, 0u);
  ASSERT_GT(live.size(), 3u);

  common::snap::Writer w;
  injector.snapshot_to(w);
  const std::string bytes = w.take();
  telemetry::NetworkState state2(f.topo, f.tech);
  FaultInjector restored(state2);
  common::snap::Reader r(bytes);
  restored.restore_from(r);
  expect_matches_scan(restored, live, issued, f.topo.link_count(),
                      "after restore");
  // The restored index keeps working through further churn.
  const FaultId first = live.begin()->first;
  restored.clear(first);
  live.erase(first);
  Fault fault = factory.make_fault(common::LinkId(3),
                                   RootCause::kSharedComponent, 500);
  const FaultId id = restored.inject(fault);
  issued = id.value() + 1;
  fault.id = id;
  live.emplace(id, std::move(fault));
  expect_matches_scan(restored, live, issued, f.topo.link_count(),
                      "after restore and churn");
}

// The affected-link list the penalty fold and the poll's suspect set
// read must list exactly what the old mark walk over the active faults
// met, in the same order, after every inject and clear and after a
// snapshot/restore. The churn covers the cases that re-key the list:
// shared-component faults striking links other faults already list, a
// fault listing one link twice, and clearing a link's first fault while
// a later fault still lists it.
TEST(FaultInjector, AffectedLinksFollowTheDedupeWalk) {
  Fixture f;
  f.topo.assign_breakout_groups(2, /*lower_level=*/0);
  FaultFactory factory(f.topo, {}, f.rng);
  auto state = std::make_unique<telemetry::NetworkState>(f.topo, f.tech);
  auto injector = std::make_unique<FaultInjector>(*state);
  std::vector<FaultId> live;
  std::size_t issued = 0;
  std::size_t overlapping_shared = 0;
  std::size_t listed_twice = 0;
  std::size_t rekeyed = 0;
  const auto expect_walk = [&](const std::string& when) {
    EXPECT_EQ(testing::affected_links(*injector),
              testing::dedupe_walk(*injector, issued, f.topo.link_count()))
        << when;
  };
  for (int op = 0; op < 400; ++op) {
    if (live.empty() || f.rng.uniform_index(5) < 3) {
      // Faults concentrated on a few links, so lists overlap.
      const common::LinkId link(static_cast<common::LinkId::underlying_type>(
          f.rng.uniform_index(8)));
      Fault fault =
          op % 3 == 0
              ? factory.make_fault(link, RootCause::kSharedComponent, op)
              : factory.make_random_fault(link, op);
      if (op % 7 == 0) {
        // One link named twice, around another.
        fault.links = {link, common::LinkId(link.value() + 8), link};
        ++listed_twice;
      }
      if (fault.links.size() > 1 &&
          std::ranges::any_of(fault.links, [&](common::LinkId l) {
            return !injector->faults_on_link(l).empty();
          })) {
        ++overlapping_shared;
      }
      const FaultId id = injector->inject(std::move(fault));
      issued = id.value() + 1;
      live.push_back(id);
      expect_walk("after inject " + std::to_string(id.value()));
    } else {
      const auto victim =
          live.begin() +
          static_cast<long>(f.rng.uniform_index(live.size()));
      const FaultId id = *victim;
      for (common::LinkId link : injector->fault(id)->links) {
        const std::span<const FaultId> ids = injector->faults_on_link(link);
        if (ids.front() == id && ids.size() > 1) ++rekeyed;
      }
      injector->clear(id);
      live.erase(victim);
      expect_walk("after clear " + std::to_string(id.value()));
    }
    if (op % 50 == 49) {
      common::snap::Writer w;
      injector->snapshot_to(w);
      const std::string bytes = w.take();
      auto state2 = std::make_unique<telemetry::NetworkState>(f.topo, f.tech);
      auto restored = std::make_unique<FaultInjector>(*state2);
      common::snap::Reader r(bytes);
      restored->restore_from(r);
      injector = std::move(restored);
      state = std::move(state2);
      expect_walk("after restore at op " + std::to_string(op));
    }
  }
  EXPECT_GT(overlapping_shared, 0u);
  EXPECT_GT(listed_twice, 0u);
  EXPECT_GT(rekeyed, 0u);
}

// One direction's state as a from-scratch fold of every live fault's
// effects on it, in fault-id order.
struct DirectionReading {
  double tx_power_dbm;
  double extra_attenuation_db;
  double corruption_rate;
};
DirectionReading full_rebuild(const FaultInjector& injector,
                              std::size_t ids_issued,
                              const telemetry::OpticalTech& tech,
                              common::DirectionId dir, common::SimTime now) {
  DirectionReading reading{tech.nominal_tx_dbm, 0.0, 0.0};
  double survival = 1.0;
  for (std::size_t i = 0; i < ids_issued; ++i) {
    const Fault* fault = injector.fault(
        FaultId(static_cast<FaultId::underlying_type>(i)));
    if (fault == nullptr) continue;
    for (const DirectionEffect& effect : fault->effects) {
      if (effect.direction != dir) continue;
      reading.extra_attenuation_db += effect.extra_attenuation_db;
      double tx_delta = effect.tx_power_delta_db;
      if (effect.tx_decay_db_per_day != 0.0) {
        tx_delta -=
            effect.tx_decay_db_per_day * common::to_days(now - fault->onset);
      }
      reading.tx_power_dbm += tx_delta;
      survival *= 1.0 - effect.corruption_rate;
    }
  }
  reading.corruption_rate = 1.0 - survival;
  return reading;
}

void expect_full_rebuild(const FaultInjector& injector,
                         const telemetry::NetworkState& state,
                         std::size_t ids_issued, common::SimTime now,
                         const std::string& when) {
  for (std::size_t d = 0; d < state.topo().direction_count(); ++d) {
    const common::DirectionId dir(
        static_cast<common::DirectionId::underlying_type>(d));
    const DirectionReading want =
        full_rebuild(injector, ids_issued, state.tech(), dir, now);
    EXPECT_EQ(state.tx_power_dbm(dir), want.tx_power_dbm)
        << when << ", direction " << d;
    EXPECT_EQ(state.direction(dir).extra_attenuation_db,
              want.extra_attenuation_db)
        << when << ", direction " << d;
    EXPECT_EQ(state.corruption_rate(dir), want.corruption_rate)
        << when << ", direction " << d;
  }
}

// advance() rebuilds only the directions of decaying faults; the rest
// keep what inject and clear last computed. Both must read what a full
// per-direction rebuild at the same instant reads. A cleared decaying
// fault leaves the decaying list (advance looks every listed id up, so
// a stale one throws), and so does one a restore rolls back; the
// restore itself rebuilds every direction, not only the faulted ones.
TEST(FaultInjector, AdvanceRebuildsOnlyDecayingFaults) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  FaultInjector injector(f.state);
  std::size_t issued = 0;
  const auto inject = [&](common::LinkId::underlying_type link,
                          RootCause cause, common::SimTime onset) {
    const FaultId id = injector.inject(
        factory.make_fault(common::LinkId(link), cause, onset));
    issued = id.value() + 1;
    return id;
  };
  const FaultId decaying_a =
      inject(1, RootCause::kDecayingTransmitter, 0);
  inject(2, RootCause::kDamagedFiber, common::kHour);
  inject(1, RootCause::kConnectorContamination, 2 * common::kHour);
  const FaultId decaying_b =
      inject(3, RootCause::kDecayingTransmitter, 3 * common::kHour);
  inject(4, RootCause::kBadOrLooseTransceiver, 4 * common::kHour);
  ASSERT_NE(injector.fault(decaying_a)->effects.front().tx_decay_db_per_day,
            0.0);

  common::SimTime now = 2 * common::kDay;
  injector.advance(now);
  expect_full_rebuild(injector, f.state, issued, now, "after advance");

  injector.clear(decaying_a);
  now = 3 * common::kDay;
  EXPECT_NO_THROW(injector.advance(now));
  expect_full_rebuild(injector, f.state, issued, now,
                      "after clearing a decaying fault");

  // Freeze, add a third decaying fault and let it decay, then roll back.
  common::snap::Writer w;
  injector.snapshot_to(w);
  const std::string bytes = w.take();
  const std::size_t issued_at_snapshot = issued;
  const FaultId decaying_c =
      inject(5, RootCause::kDecayingTransmitter, now);
  now = 4 * common::kDay;
  injector.advance(now);
  expect_full_rebuild(injector, f.state, issued, now,
                      "after a third decaying fault");
  common::snap::Reader r(bytes);
  injector.restore_from(r);
  EXPECT_EQ(injector.fault(decaying_c), nullptr);
  ASSERT_NE(injector.fault(decaying_b), nullptr);
  // The restore rebuilt the state at the restored clock, the third
  // fault's directions (faulted by no restored fault) included.
  expect_full_rebuild(injector, f.state, issued_at_snapshot,
                      3 * common::kDay, "right after the restore");
  now = 5 * common::kDay;
  EXPECT_NO_THROW(injector.advance(now));
  expect_full_rebuild(injector, f.state, issued_at_snapshot, now,
                      "after restoring without the third");
}

}  // namespace
}  // namespace corropt::faults
