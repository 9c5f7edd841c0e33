// Empirical cumulative distribution functions.
//
// Several paper figures (2b, 3b, 18b) are CDFs; benches use this class to
// print their quantiles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace corropt::stats {

class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::span<const double> samples);

  void add(double sample);

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  // Smallest sample s with F(s) >= q, q in (0, 1]. Requires samples.
  [[nodiscard]] double quantile(double q);

 private:
  // Sorts pending samples; called lazily by queries.
  void finalize();

  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace corropt::stats
