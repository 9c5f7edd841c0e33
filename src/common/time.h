// Simulation time.
//
// All simulated clocks run on integer seconds since the start of the
// scenario. The paper's monitoring system polls SNMP counters every
// 15 minutes and its repair queue is measured in days, so one-second
// resolution is ample while keeping arithmetic exact.
#pragma once

#include <cstdint>

namespace corropt::common {

// Seconds since scenario start.
using SimTime = std::int64_t;
// A span of simulated seconds.
using SimDuration = std::int64_t;

inline constexpr SimDuration kSecond = 1;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;
inline constexpr SimDuration kDay = 24 * kHour;
inline constexpr SimDuration kWeek = 7 * kDay;

// The paper's SNMP polling interval (Section 2).
inline constexpr SimDuration kPollInterval = 15 * kMinute;

// Average ticket service time observed in the paper's DCNs (Section 5.2).
inline constexpr SimDuration kMeanRepairTime = 2 * kDay;

[[nodiscard]] constexpr double to_days(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kDay);
}

}  // namespace corropt::common
