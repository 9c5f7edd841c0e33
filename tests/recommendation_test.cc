#include <gtest/gtest.h>

#include "common/rng.h"
#include "corropt/recommendation.h"
#include "faults/fault_factory.h"
#include "faults/injector.h"
#include "topology/fat_tree.h"

namespace corropt::core {
namespace {

using faults::FaultFactory;
using faults::FaultMixParams;
using faults::RepairAction;
using faults::RootCause;
using topology::LinkDirection;

struct Fixture {
  Fixture()
      : topo(topology::build_fat_tree(4)),
        state(topo, telemetry::default_tech()),
        injector(state),
        rng(11),
        engine(state) {}

  // Picks the corrupting direction of `link` (requires exactly one).
  common::DirectionId corrupting_direction(common::LinkId link) const {
    const auto up = topology::direction_id(link, LinkDirection::kUp);
    const auto down = topology::direction_id(link, LinkDirection::kDown);
    return state.corruption_rate(up) >= state.corruption_rate(down) ? up
                                                                    : down;
  }

  topology::Topology topo;
  telemetry::NetworkState state;
  faults::FaultInjector injector;
  common::Rng rng;
  RecommendationEngine engine;
};

TEST(Recommendation, ContaminationGetsFiberCleaning) {
  Fixture f;
  FaultMixParams params;
  params.p_back_reflection = 0.0;
  FaultFactory factory(f.topo, params, f.rng);
  const common::LinkId link(0);
  f.injector.inject(
      factory.make_fault(link, RootCause::kConnectorContamination, 0));
  const Recommendation rec =
      f.engine.recommend(f.corrupting_direction(link), false);
  EXPECT_EQ(rec.action, RepairAction::kCleanFiber);
  EXPECT_STRNE(rec.rationale, "");
}

TEST(Recommendation, DamagedFiberGetsCableReplacement) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  const common::LinkId link(1);
  f.injector.inject(factory.make_fault(link, RootCause::kDamagedFiber, 0));
  // Bidirectional corruption triggers the opposite-side check first.
  const Recommendation rec =
      f.engine.recommend(f.corrupting_direction(link), false);
  EXPECT_EQ(rec.action, RepairAction::kReplaceFiber);
}

TEST(Recommendation, DecayingTransmitterGetsRemoteReplacement) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  const common::LinkId link(2);
  f.injector.inject(
      factory.make_fault(link, RootCause::kDecayingTransmitter, 0));
  const Recommendation rec =
      f.engine.recommend(f.corrupting_direction(link), false);
  EXPECT_EQ(rec.action, RepairAction::kReplaceRemoteTransceiver);
}

TEST(Recommendation, HealthyOpticsGetReseatThenReplace) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  const common::LinkId link(3);
  f.injector.inject(
      factory.make_fault(link, RootCause::kBadOrLooseTransceiver, 0));
  const auto dir = f.corrupting_direction(link);
  EXPECT_EQ(f.engine.recommend(dir, /*recently_reseated=*/false).action,
            RepairAction::kReseatTransceiver);
  EXPECT_EQ(f.engine.recommend(dir, /*recently_reseated=*/true).action,
            RepairAction::kReplaceTransceiver);
}

TEST(Recommendation, BackReflectionContaminationIsMisdiagnosed) {
  // The known blind spot (Section 4): reflective contamination keeps
  // RxPower high, so Algorithm 1 recommends a transceiver action even
  // though cleaning is what the link needs. This bounds accuracy < 100%.
  Fixture f;
  FaultMixParams params;
  params.p_back_reflection = 1.0;
  FaultFactory factory(f.topo, params, f.rng);
  const common::LinkId link(4);
  f.injector.inject(
      factory.make_fault(link, RootCause::kConnectorContamination, 0));
  const Recommendation rec =
      f.engine.recommend(f.corrupting_direction(link), false);
  EXPECT_EQ(rec.action, RepairAction::kReseatTransceiver);
}

TEST(Recommendation, SharedComponentDetectedViaNeighbors) {
  Fixture f;
  FaultFactory factory(f.topo, {}, f.rng);
  // Shared fault on a ToR's uplinks: every affected link sees corrupting
  // neighbours on the same switch.
  const auto tor = f.topo.tors().front();
  const common::LinkId link = f.topo.switch_at(tor).uplinks.front();
  const faults::Fault fault =
      factory.make_fault(link, RootCause::kSharedComponent, 0);
  ASSERT_GT(fault.links.size(), 1u);
  f.injector.inject(fault);
  for (common::LinkId affected : fault.links) {
    const Recommendation rec = f.engine.recommend_link(affected, false);
    EXPECT_EQ(rec.action, RepairAction::kReplaceSharedComponent);
  }
}

TEST(Recommendation, UnrelatedNeighborCorruptionMisleads) {
  // Weak locality can put two independent faults on one switch; the
  // neighbour check then wrongly implicates a shared component. This is
  // a deliberate fidelity point, not a bug: the paper's engine has the
  // same failure mode.
  Fixture f;
  FaultMixParams params;
  params.p_back_reflection = 0.0;
  FaultFactory factory(f.topo, params, f.rng);
  const auto tor = f.topo.tors().front();
  const auto& uplinks = f.topo.switch_at(tor).uplinks;
  f.injector.inject(factory.make_fault(
      uplinks[0], RootCause::kConnectorContamination, 0));
  f.injector.inject(factory.make_fault(
      uplinks[1], RootCause::kConnectorContamination, 0));
  EXPECT_EQ(f.engine.recommend_link(uplinks[0], false).action,
            RepairAction::kReplaceSharedComponent);
}

TEST(Recommendation, LinkLevelPicksWorseDirection) {
  Fixture f;
  const common::LinkId link(6);
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  // Craft state directly: down is the corrupting direction with low Rx.
  f.state.direction(down).corruption_rate = 1e-3;
  f.state.direction(down).extra_attenuation_db = 12.0;
  (void)up;
  const Recommendation rec = f.engine.recommend_link(link, false);
  EXPECT_EQ(rec.action, RepairAction::kCleanFiber);
}

TEST(Recommendation, BothRxLowWithoutBidirectionalCorruption) {
  // Rx low on both ends but corruption observed on one direction only:
  // Algorithm 1 line 12-13 still implicates the fiber.
  Fixture f;
  const common::LinkId link(7);
  const auto up = topology::direction_id(link, LinkDirection::kUp);
  const auto down = topology::direction_id(link, LinkDirection::kDown);
  f.state.direction(up).corruption_rate = 1e-4;
  f.state.direction(up).extra_attenuation_db = 10.0;
  f.state.direction(down).extra_attenuation_db = 10.0;
  const Recommendation rec = f.engine.recommend(up, false);
  EXPECT_EQ(rec.action, RepairAction::kReplaceFiber);
}

}  // namespace
}  // namespace corropt::core
