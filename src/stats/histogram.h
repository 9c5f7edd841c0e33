// Log-scale loss-rate bucketing.
//
// Table 1 of the paper groups links by loss rate into decade buckets
// [1e-8, 1e-5), [1e-5, 1e-4), [1e-4, 1e-3), [1e-3, +inf). This module
// generalizes that to arbitrary decade edges and produces normalized
// distributions exactly as the table reports them.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace corropt::stats {

class LossBucketHistogram {
 public:
  // `edges` are ascending bucket lower bounds; the last bucket is
  // [edges.back(), +inf). Values below edges.front() are not counted,
  // which matches the paper's treatment of links under the 1e-8
  // "lossy" threshold.
  explicit LossBucketHistogram(std::vector<double> edges);

  // The paper's Table 1 buckets.
  static LossBucketHistogram table1();

  void add(double loss_rate);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bucket) const;
  [[nodiscard]] std::size_t total() const { return total_; }
  // Fraction of counted samples in each bucket (sums to 1 when total > 0).
  [[nodiscard]] std::vector<double> normalized() const;
  // Human-readable label like "[1e-05 - 1e-04)" or "[1e-03+)".
  [[nodiscard]] std::string label(std::size_t bucket) const;

 private:
  std::vector<double> edges_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace corropt::stats
