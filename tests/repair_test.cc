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
  const TicketId a = queue.open(LinkId(1), 0, 1, std::nullopt);
  const TicketId b = queue.open(LinkId(2), 100, 1, std::nullopt);
  EXPECT_EQ(queue.ticket(a).scheduled_completion, 2 * common::kDay);
  EXPECT_EQ(queue.ticket(b).scheduled_completion, 100 + 2 * common::kDay);
  EXPECT_EQ(a, TicketId(0));
  EXPECT_EQ(b, TicketId(1));
  queue.close(a);
  EXPECT_EQ(queue.ticket(b).link, LinkId(2));
  // Ids keep counting every ticket issued, closed ones included.
  EXPECT_EQ(queue.open(LinkId(3), 200, 1, std::nullopt), TicketId(2));
}

TEST(TicketQueue, TicketMetadataPreserved) {
  TicketQueue queue;
  const TicketId id = queue.open(LinkId(7), 42, 3,
                                 RepairAction::kCleanFiber, "dirty fiber");
  const Ticket& ticket = queue.ticket(id);
  EXPECT_EQ(ticket.link, LinkId(7));
  EXPECT_EQ(ticket.issued, 42);
  EXPECT_EQ(ticket.attempt, 3);
  ASSERT_TRUE(ticket.recommendation.has_value());
  EXPECT_EQ(*ticket.recommendation, RepairAction::kCleanFiber);
  EXPECT_EQ(ticket.rationale, "dirty fiber");
}

TEST(TicketQueue, BoundedCrewSerializesBacklog) {
  constexpr common::SimDuration kService = common::kMeanRepairTime;
  TicketQueueParams params;
  params.technicians = 1;
  TicketQueue queue(params);
  const TicketId a = queue.open(LinkId(1), 0, 1, std::nullopt);
  const TicketId b = queue.open(LinkId(2), 0, 1, std::nullopt);
  const TicketId c = queue.open(LinkId(3), 0, 1, std::nullopt);
  EXPECT_EQ(queue.ticket(a).scheduled_completion, kService);
  EXPECT_EQ(queue.ticket(b).scheduled_completion, 2 * kService);
  EXPECT_EQ(queue.ticket(c).scheduled_completion, 3 * kService);
}

TEST(TicketQueue, BoundedCrewIdleTechnicianStartsImmediately) {
  constexpr common::SimDuration kService = common::kMeanRepairTime;
  TicketQueueParams params;
  params.technicians = 2;
  TicketQueue queue(params);
  queue.open(LinkId(1), 0, 1, std::nullopt);
  const TicketId b = queue.open(LinkId(2), 0, 1, std::nullopt);
  EXPECT_EQ(queue.ticket(b).scheduled_completion, kService);
  // A ticket arriving after the backlog drains starts at its issue time.
  const TicketId late = queue.open(LinkId(3), 5 * kService, 1, std::nullopt);
  EXPECT_EQ(queue.ticket(late).scheduled_completion, 6 * kService);
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
