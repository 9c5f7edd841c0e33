#include <gtest/gtest.h>

#include "common/rng.h"
#include "repair/technician.h"
#include "repair/ticket.h"

namespace corropt::repair {
namespace {

using faults::RepairAction;
using faults::RootCause;

TEST(TicketQueue, UnboundedCrewFixedServiceTime) {
  TicketQueue queue;  // Paper model: 2 days per attempt.
  const OpenedTicket a = queue.open(0, std::nullopt);
  const OpenedTicket b = queue.open(100, std::nullopt);
  EXPECT_EQ(a.completion, 2 * common::kDay);
  EXPECT_EQ(b.completion, 100 + 2 * common::kDay);
  EXPECT_EQ(a.id, TicketId(0));
  EXPECT_EQ(b.id, TicketId(1));
  queue.close(a.id);
  EXPECT_FALSE(queue.is_open(a.id));
  EXPECT_TRUE(queue.is_open(b.id));
  // Ids keep counting every ticket issued, closed ones included.
  EXPECT_EQ(queue.open(200, std::nullopt).id, TicketId(2));
}

TEST(TicketQueue, TicketMetadataPreserved) {
  TicketQueue queue;
  const OpenedTicket with = queue.open(42, RepairAction::kCleanFiber);
  const OpenedTicket without = queue.open(42, std::nullopt);
  const Ticket& ticket = queue.ticket(with.id);
  ASSERT_TRUE(ticket.recommendation.has_value());
  EXPECT_EQ(*ticket.recommendation, RepairAction::kCleanFiber);
  EXPECT_FALSE(queue.ticket(without.id).recommendation.has_value());
}

TEST(TicketQueue, BoundedCrewSerializesBacklog) {
  constexpr common::SimDuration kService = common::kMeanRepairTime;
  TicketQueueParams params;
  params.technicians = 1;
  TicketQueue queue(params);
  EXPECT_EQ(queue.open(0, std::nullopt).completion, kService);
  EXPECT_EQ(queue.open(0, std::nullopt).completion, 2 * kService);
  EXPECT_EQ(queue.open(0, std::nullopt).completion, 3 * kService);
}

TEST(TicketQueue, BoundedCrewIdleTechnicianStartsImmediately) {
  constexpr common::SimDuration kService = common::kMeanRepairTime;
  TicketQueueParams params;
  params.technicians = 2;
  TicketQueue queue(params);
  queue.open(0, std::nullopt);
  EXPECT_EQ(queue.open(0, std::nullopt).completion, kService);
  // A ticket arriving after the backlog drains starts at its issue time.
  EXPECT_EQ(queue.open(5 * kService, std::nullopt).completion, 6 * kService);
}

TEST(OutcomeModel, FirstAttemptProbabilitySecondCertain) {
  common::Rng rng(3);
  OutcomeModel model;
  model.first_attempt_success = 0.8;
  int successes = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    successes += model.attempt_succeeds(1, rng);
  }
  EXPECT_NEAR(successes / double(kTrials), 0.8, 0.01);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(model.attempt_succeeds(2, rng));
    EXPECT_TRUE(model.attempt_succeeds(3, rng));
  }
}

TEST(Technician, LegacySequenceEscalates) {
  EXPECT_EQ(Technician::legacy_action(1), RepairAction::kCleanFiber);
  EXPECT_EQ(Technician::legacy_action(2), RepairAction::kReseatTransceiver);
  EXPECT_EQ(Technician::legacy_action(3), RepairAction::kReplaceTransceiver);
  EXPECT_EQ(Technician::legacy_action(4), RepairAction::kReplaceFiber);
  // Wraps around rather than running out of ideas.
  EXPECT_EQ(Technician::legacy_action(7), RepairAction::kCleanFiber);
}

TEST(Technician, AlwaysFollowsWhenConfigured) {
  common::Rng rng(5);
  Technician technician(1.0);
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(technician.choose_action(RepairAction::kReplaceFiber, attempt,
                                       rng),
              RepairAction::kReplaceFiber);
  }
}

TEST(Technician, IgnoresRecommendationAtConfiguredRate) {
  common::Rng rng(7);
  Technician technician(0.7);  // The paper's observed 30% ignore rate.
  int followed = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    followed += technician.choose_action(RepairAction::kReplaceFiber, 1,
                                         rng) == RepairAction::kReplaceFiber;
  }
  // Non-followers pick legacy attempt-1 action (clean fiber).
  EXPECT_NEAR(followed / double(kTrials), 0.7, 0.01);
}

TEST(Technician, FallsBackToLegacyWithoutRecommendation) {
  common::Rng rng(9);
  Technician technician(1.0);
  EXPECT_EQ(technician.choose_action(std::nullopt, 1, rng),
            RepairAction::kCleanFiber);
  EXPECT_EQ(technician.choose_action(std::nullopt, 4, rng),
            RepairAction::kReplaceFiber);
}

TEST(Technician, VisualInspectionSpotsPhysicalFaults) {
  common::Rng rng(11);
  const Technician technician(1.0);
  // Visible causes are spotted at the inspection's odds (60% of damaged
  // fibers, 50% of loose transceivers) and get the right action.
  constexpr int kTrials = 4000;
  int damage = 0;
  int loose = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (const auto action = technician.inspect(RootCause::kDamagedFiber, rng)) {
      EXPECT_EQ(*action, RepairAction::kReplaceFiber);
      ++damage;
    }
    if (const auto action =
            technician.inspect(RootCause::kBadOrLooseTransceiver, rng)) {
      EXPECT_EQ(*action, RepairAction::kReseatTransceiver);
      ++loose;
    }
    // Invisible causes are never spotted.
    EXPECT_EQ(technician.inspect(RootCause::kConnectorContamination, rng),
              std::nullopt);
    EXPECT_EQ(technician.inspect(RootCause::kSharedComponent, rng),
              std::nullopt);
    EXPECT_EQ(technician.inspect(RootCause::kDecayingTransmitter, rng),
              std::nullopt);
  }
  EXPECT_NEAR(static_cast<double>(damage) / kTrials, 0.6, 0.03);
  EXPECT_NEAR(static_cast<double>(loose) / kTrials, 0.5, 0.03);
}

}  // namespace
}  // namespace corropt::repair
