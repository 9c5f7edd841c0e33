// Corruption penalty functions.
//
// CorrOpt minimizes the total penalty of active corrupting links,
// sum over links of (1 - d_l) * I(f_l), where I is a monotonically
// increasing function reflecting how loss rate degrades application
// performance (Section 5.1). The paper's evaluation uses I(f) = f, making
// total penalty proportional to corruption losses under equal utilization;
// we also provide a step penalty (SLA-style) and a TCP-throughput-shaped
// penalty derived from the Mathis 1/sqrt(p) law for ablations.
#pragma once

namespace corropt::core {

class PenaltyFunction {
 public:
  // The SLA loss rate of step().
  static constexpr double kStepThreshold = 1e-4;
  // The loss rate at which tcp_throughput() has halved throughput.
  static constexpr double kTcpHalfLossRate = 1e-4;

  // I(f) = f. The paper's choice (Section 7.1).
  static PenaltyFunction linear();
  // I(f) = 1 if f >= kStepThreshold else 0: penalizes links violating an
  // SLA.
  static PenaltyFunction step();
  // Fraction of TCP throughput lost on a path with loss rate f, from the
  // Mathis model (throughput ~ 1/sqrt(f)): I(f) = 1 - 1/(1 + sqrt(f/f0))
  // with f0 = kTcpHalfLossRate.
  static PenaltyFunction tcp_throughput();

  // Evaluates I(loss_rate); monotone non-decreasing, I(0) = 0.
  [[nodiscard]] double operator()(double loss_rate) const;

 private:
  enum class Kind { kLinear, kStep, kTcp };
  explicit PenaltyFunction(Kind kind) : kind_(kind) {}

  Kind kind_;
};

}  // namespace corropt::core
