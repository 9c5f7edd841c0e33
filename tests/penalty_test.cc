#include <gtest/gtest.h>

#include "corropt/penalty.h"

namespace corropt::core {
namespace {

TEST(Penalty, LinearIsIdentity) {
  const PenaltyFunction penalty = PenaltyFunction::linear();
  EXPECT_DOUBLE_EQ(penalty(0.0), 0.0);
  EXPECT_DOUBLE_EQ(penalty(1e-6), 1e-6);
  EXPECT_DOUBLE_EQ(penalty(0.5), 0.5);
}

TEST(Penalty, StepThreshold) {
  ASSERT_EQ(PenaltyFunction::kStepThreshold, 1e-4);
  const PenaltyFunction penalty = PenaltyFunction::step();
  EXPECT_DOUBLE_EQ(penalty(0.0), 0.0);
  EXPECT_DOUBLE_EQ(penalty(9.99e-5), 0.0);
  EXPECT_DOUBLE_EQ(penalty(1e-4), 1.0);  // Closed at the threshold.
  EXPECT_DOUBLE_EQ(penalty(1e-2), 1.0);
}

TEST(Penalty, TcpShape) {
  ASSERT_EQ(PenaltyFunction::kTcpHalfLossRate, 1e-4);
  const PenaltyFunction penalty = PenaltyFunction::tcp_throughput();
  EXPECT_DOUBLE_EQ(penalty(0.0), 0.0);
  // At the half-loss rate, half the throughput is gone.
  EXPECT_NEAR(penalty(1e-4), 0.5, 1e-12);
  // Saturates toward 1 but never exceeds it.
  EXPECT_GT(penalty(1e-1), 0.9);
  EXPECT_LT(penalty(1.0), 1.0);
}

class PenaltyMonotoneTest
    : public ::testing::TestWithParam<int> {};

TEST_P(PenaltyMonotoneTest, MonotoneNonDecreasingWithZeroAtZero) {
  PenaltyFunction penalty = PenaltyFunction::linear();
  switch (GetParam()) {
    case 0:
      penalty = PenaltyFunction::linear();
      break;
    case 1:
      penalty = PenaltyFunction::step();
      break;
    case 2:
      penalty = PenaltyFunction::tcp_throughput();
      break;
  }
  EXPECT_DOUBLE_EQ(penalty(0.0), 0.0);
  double previous = 0.0;
  for (double f = 1e-9; f <= 1.0; f *= 3.0) {
    const double value = penalty(f);
    EXPECT_GE(value, previous) << "f=" << f;
    previous = value;
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, PenaltyMonotoneTest,
                         ::testing::Range(0, 3));

}  // namespace
}  // namespace corropt::core
