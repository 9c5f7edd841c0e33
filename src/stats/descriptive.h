// Descriptive statistics used throughout the measurement study.
//
// Figure 2b needs the coefficient of variation of per-link loss-rate
// series; Figure 1 needs mean and standard deviation of daily loss counts.
#pragma once

#include <cstddef>
#include <span>

namespace corropt::stats {

// Streaming accumulator (Welford) for mean/variance; numerically stable
// for the week-long 15-minute series the study produces.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  // Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  // Coefficient of variation: stddev / mean; 0 when the mean is 0.
  [[nodiscard]] double coefficient_of_variation() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

  // Pools two accumulators (parallel-friendly Chan et al. merge).
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

[[nodiscard]] double mean(std::span<const double> values);

}  // namespace corropt::stats
