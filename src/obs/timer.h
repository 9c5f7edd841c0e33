// Observability: RAII latency timers.
//
// ScopedTimer measures one scope with steady_clock and, on destruction,
// feeds the elapsed seconds into a timer Histogram (see
// MetricsRegistry::timer). With an inert histogram the constructor skips
// the clock reads entirely, so instrumented hot paths cost nothing when
// observability is detached.
#pragma once

#include <chrono>

#include "obs/metrics.h"

namespace corropt::obs {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram histogram)
      : histogram_(histogram), active_(static_cast<bool>(histogram)) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (!active_) return;
    const auto end = std::chrono::steady_clock::now();
    histogram_.record(std::chrono::duration<double>(end - start_).count());
  }

 private:
  Histogram histogram_;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace corropt::obs
