#include "stats/correlation.h"

#include <cmath>

namespace corropt::stats {

void PearsonAccumulator::add(double x, double y) {
  ++n_;
  sx_ += x;
  sy_ += y;
  sxx_ += x * x;
  syy_ += y * y;
  sxy_ += x * y;
}

void PearsonAccumulator::merge(const PearsonAccumulator& other) {
  n_ += other.n_;
  sx_ += other.sx_;
  sy_ += other.sy_;
  sxx_ += other.sxx_;
  syy_ += other.syy_;
  sxy_ += other.sxy_;
}

double PearsonAccumulator::correlation() const {
  if (n_ < 2) return 0.0;
  const auto n = static_cast<double>(n_);
  const double cov = sxy_ - sx_ * sy_ / n;
  const double vx = sxx_ - sx_ * sx_ / n;
  const double vy = syy_ - sy_ * sy_ / n;
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace corropt::stats
