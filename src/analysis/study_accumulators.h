// Ready-made accumulators for the sharded measurement study.
//
// These cover the aggregation shapes the paper's exhibits share: drop
// totals per direction (Table 1, Figures 4-5, the stage mix) and drop
// totals per day (Figure 1). Both count in integers, so their results
// do not depend on how samples are grouped into partials.
// Partials exploit the documented tile sample order (directions ascend,
// epochs contiguous per direction) to stay compact: one row per
// direction actually seen, appended on direction change.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.h"
#include "telemetry/monitor.h"

namespace corropt::analysis {

// Whole-window packet/drop totals for every direction.
class DirectionTotalsAccumulator {
 public:
  struct Totals {
    std::uint64_t packets = 0;
    std::uint64_t corruption_drops = 0;
    std::uint64_t congestion_drops = 0;
  };

  static constexpr bool kLossCapableOnly = true;

  explicit DirectionTotalsAccumulator(std::size_t direction_count)
      : totals_(direction_count) {}

  struct Partial {
    std::vector<std::pair<std::uint32_t, Totals>> rows;
    void add(const telemetry::PollSample& s) {
      if (rows.empty() || rows.back().first != s.direction.value()) {
        rows.emplace_back(s.direction.value(), Totals{});
      }
      Totals& t = rows.back().second;
      t.packets += s.packets;
      t.corruption_drops += s.corruption_drops;
      t.congestion_drops += s.congestion_drops;
    }
  };

  [[nodiscard]] Partial make_partial() const { return {}; }

  void merge(Partial& p) {
    for (const auto& [dir, t] : p.rows) {
      Totals& out = totals_[dir];
      out.packets += t.packets;
      out.corruption_drops += t.corruption_drops;
      out.congestion_drops += t.congestion_drops;
    }
  }

  [[nodiscard]] const Totals& operator[](common::DirectionId dir) const {
    return totals_[dir.index()];
  }

 private:
  std::vector<Totals> totals_;
};

// Fabric-wide drop totals per study day (Figure 1's raw input).
class DailyDropTotalsAccumulator {
 public:
  static constexpr bool kLossCapableOnly = true;

  explicit DailyDropTotalsAccumulator(int days)
      : corruption_(static_cast<std::size_t>(days), 0),
        congestion_(static_cast<std::size_t>(days), 0) {}

  struct Partial {
    std::vector<std::uint64_t> corruption;
    std::vector<std::uint64_t> congestion;
    void add(const telemetry::PollSample& s) {
      const auto day = static_cast<std::size_t>(s.time / common::kDay);
      corruption[day] += s.corruption_drops;
      congestion[day] += s.congestion_drops;
    }
  };

  [[nodiscard]] Partial make_partial() const {
    return {std::vector<std::uint64_t>(corruption_.size(), 0),
            std::vector<std::uint64_t>(congestion_.size(), 0)};
  }

  void merge(Partial& p) {
    for (std::size_t d = 0; d < corruption_.size(); ++d) {
      corruption_[d] += p.corruption[d];
      congestion_[d] += p.congestion[d];
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& corruption_per_day() const {
    return corruption_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& congestion_per_day() const {
    return congestion_;
  }

 private:
  std::vector<std::uint64_t> corruption_;
  std::vector<std::uint64_t> congestion_;
};

}  // namespace corropt::analysis
