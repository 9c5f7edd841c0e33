// Correlation measures.
//
// Figure 3b plots the Pearson correlation between a link's utilization and
// the logarithm of its loss rate; this module provides that computation
// as a streaming accumulator.
#pragma once

#include <cstddef>

namespace corropt::stats {

// Streaming Pearson accumulator: O(1) memory per link series, used when
// correlating a week of 15-minute samples across every link of a DCN.
class PearsonAccumulator {
 public:
  void add(double x, double y);
  // Combines another accumulator's samples into this one, as if its
  // add() calls had happened here; lets sharded studies merge split
  // per-link series.
  void merge(const PearsonAccumulator& other);
  [[nodiscard]] std::size_t count() const { return n_; }
  // 0 when degenerate (fewer than 2 points or zero variance).
  [[nodiscard]] double correlation() const;

 private:
  std::size_t n_ = 0;
  double sx_ = 0.0, sy_ = 0.0, sxx_ = 0.0, syy_ = 0.0, sxy_ = 0.0;
};

}  // namespace corropt::stats
