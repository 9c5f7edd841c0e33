#include "stats/cdf.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace corropt::stats {

EmpiricalCdf::EmpiricalCdf(std::span<const double> samples)
    : samples_(samples.begin(), samples.end()), sorted_(false) {
  finalize();
}

void EmpiricalCdf::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void EmpiricalCdf::finalize() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::quantile(double q) {
  assert(!samples_.empty());
  assert(q > 0.0 && q <= 1.0);
  finalize();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  return samples_[std::min(rank == 0 ? 0 : rank - 1, samples_.size() - 1)];
}

}  // namespace corropt::stats
