#include "stats/histogram.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/lossy.h"

namespace corropt::stats {

LossBucketHistogram::LossBucketHistogram(std::vector<double> edges)
    : edges_(std::move(edges)), counts_(edges_.size(), 0) {
  assert(!edges_.empty());
  assert(std::is_sorted(edges_.begin(), edges_.end()));
}

LossBucketHistogram LossBucketHistogram::table1() {
  return LossBucketHistogram({common::kLossyThreshold, 1e-5, 1e-4, 1e-3});
}

void LossBucketHistogram::add(double loss_rate) {
  if (loss_rate < edges_.front()) return;
  const auto it =
      std::upper_bound(edges_.begin(), edges_.end(), loss_rate);
  const auto bucket = static_cast<std::size_t>(it - edges_.begin()) - 1;
  ++counts_[bucket];
  ++total_;
}

std::vector<double> LossBucketHistogram::normalized() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return out;
}

std::string LossBucketHistogram::label(std::size_t bucket) const {
  assert(bucket < counts_.size());
  char buf[64];
  if (bucket + 1 == edges_.size()) {
    std::snprintf(buf, sizeof(buf), "[%.0e+)", edges_[bucket]);
  } else {
    std::snprintf(buf, sizeof(buf), "[%.0e - %.0e)", edges_[bucket],
                  edges_[bucket + 1]);
  }
  return buf;
}

}  // namespace corropt::stats
