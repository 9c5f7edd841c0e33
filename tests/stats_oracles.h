// Batch reference for the streaming correlation accumulator.
//
// stats::PearsonAccumulator folds a series in O(1) memory; the two-pass
// formula below is the textbook definition it must agree with.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace corropt::testing {

// Pearson product-moment correlation of two equal-length series.
// Returns 0 when either series has zero variance or fewer than 2 points,
// the same convention as PearsonAccumulator::correlation().
inline double pearson(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

// Pearson correlation of x against log10(max(y, floor)). The floor keeps
// zero-loss polling intervals finite, mirroring how the paper treats the
// logarithm of loss rates that include zero samples.
inline double pearson_log(std::span<const double> x,
                          std::span<const double> y, double floor = 1e-10) {
  assert(floor > 0.0);
  std::vector<double> log_y(y.size());
  std::transform(y.begin(), y.end(), log_y.begin(), [floor](double v) {
    return std::log10(std::max(v, floor));
  });
  return pearson(x, log_y);
}

}  // namespace corropt::testing
