#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <vector>

#include "analysis/locality.h"
#include "analysis/measurement_study.h"
#include "common/rng.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "topology/fat_tree.h"

namespace corropt::analysis {
namespace {

// Visits every poll sample of the study window, direction-major, through
// the keyed sample() grid that run() tiles.
template <typename Visit>
void for_each_sample(const topology::Topology& topo,
                     const MeasurementStudy& study, const StudyConfig& config,
                     Visit&& visit) {
  const common::SimTime end = config.days * common::kDay;
  for (std::size_t d = 0; d < topo.direction_count(); ++d) {
    const common::DirectionId dir(
        static_cast<common::DirectionId::underlying_type>(d));
    for (common::SimTime t = 0; t < end; t += config.epoch) {
      visit(study.sample(dir, t));
    }
  }
}

TEST(Locality, SwitchFractionCountsIncidentSwitches) {
  const auto topo = topology::build_fat_tree(4);  // 20 switches
  const auto tor = topo.tors().front();
  const std::vector<common::LinkId> links = {
      topo.switch_at(tor).uplinks[0]};
  // One link touches 2 of 20 switches.
  EXPECT_DOUBLE_EQ(switch_fraction(topo, links), 0.1);
  EXPECT_DOUBLE_EQ(switch_fraction(topo, {}), 0.0);
}

TEST(Locality, ColocatedLinksScoreBelowRandom) {
  const auto topo = topology::build_fat_tree(8);
  common::Rng rng(1);
  // All uplinks of one switch: maximal co-location.
  const auto tor = topo.tors().front();
  const std::vector<common::LinkId> clustered(
      topo.switch_at(tor).uplinks.begin(),
      topo.switch_at(tor).uplinks.end());
  const double clustered_ratio = locality_ratio(topo, clustered, rng);
  EXPECT_LT(clustered_ratio, 0.75);

  // Uniformly random links: ratio near 1.
  std::vector<common::LinkId> scattered;
  for (std::size_t index :
       rng.sample_without_replacement(topo.link_count(), 4)) {
    scattered.push_back(
        common::LinkId(static_cast<common::LinkId::underlying_type>(index)));
  }
  const double scattered_ratio = locality_ratio(topo, scattered, rng);
  EXPECT_NEAR(scattered_ratio, 1.0, 0.35);
  EXPECT_LT(clustered_ratio, scattered_ratio);
}

TEST(Locality, AsymmetryClassification) {
  const std::vector<double> up = {1e-4, 0.0, 1e-6, 0.0};
  const std::vector<double> down = {1e-5, 0.0, 0.0, 1e-3};
  const AsymmetryStats stats = asymmetry(up, down);
  EXPECT_EQ(stats.lossy_links, 3u);
  EXPECT_EQ(stats.bidirectional_links, 1u);
  ASSERT_EQ(stats.bidirectional_rates.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.bidirectional_rates[0].first, 1e-4);
  EXPECT_DOUBLE_EQ(stats.bidirectional_rates[0].second, 1e-5);
  EXPECT_NEAR(stats.bidirectional_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(MeasurementStudy, SeedsRequestedCorruptionPopulation) {
  const auto topo = topology::build_fat_tree(8);  // 256 links
  StudyConfig config;
  config.corrupting_link_fraction = 0.05;
  MeasurementStudy study(topo, config);
  EXPECT_GE(study.corrupting_links().size(), 12u);
  for (const auto& [link, rate] : study.corrupting_links()) {
    EXPECT_GE(rate, 1e-8);
  }
}

TEST(MeasurementStudy, CorruptionStableCongestionVariable) {
  // The Figure 2 property: corruption loss rate has a far lower
  // coefficient of variation than congestion loss rate.
  const auto topo = topology::build_fat_tree(8);
  StudyConfig config;
  config.days = 3;
  config.epoch = common::kHour;  // Coarser polls keep the test fast.
  config.corrupting_link_fraction = 0.05;
  MeasurementStudy study(topo, config);

  std::unordered_map<std::uint32_t, stats::RunningStats> corruption_series;
  std::unordered_map<std::uint32_t, stats::RunningStats> congestion_series;
  for_each_sample(topo, study, config,
                  [&](const telemetry::PollSample& sample) {
    if (sample.packets == 0) return;
    corruption_series[sample.direction.value()].add(
        sample.corruption_loss_rate());
    congestion_series[sample.direction.value()].add(
        sample.congestion_loss_rate());
  });

  stats::RunningStats corruption_cv, congestion_cv;
  std::size_t corrupting = 0, congested = 0;
  for (auto& [dir, series] : corruption_series) {
    if (series.mean() > 1e-8) {
      corruption_cv.add(series.coefficient_of_variation());
      ++corrupting;
    }
  }
  for (auto& [dir, series] : congestion_series) {
    if (series.mean() > 1e-8) {
      congestion_cv.add(series.coefficient_of_variation());
      ++congested;
    }
  }
  ASSERT_GT(corrupting, 3u);
  ASSERT_GT(congested, 3u);
  EXPECT_LT(corruption_cv.mean() * 1.5, congestion_cv.mean());
}

TEST(MeasurementStudy, CorruptionUncorrelatedCongestionCorrelated) {
  // The Figure 3 property, computed exactly as the paper does: Pearson
  // correlation between utilization and log10 loss rate.
  const auto topo = topology::build_fat_tree(8);
  StudyConfig config;
  config.days = 5;
  config.epoch = common::kHour;
  config.corrupting_link_fraction = 0.06;
  MeasurementStudy study(topo, config);

  std::unordered_map<std::uint32_t, stats::PearsonAccumulator> corr_acc;
  std::unordered_map<std::uint32_t, stats::PearsonAccumulator> cong_acc;
  for_each_sample(topo, study, config,
                  [&](const telemetry::PollSample& sample) {
    if (sample.packets == 0) return;
    const double corruption = sample.corruption_loss_rate();
    const double congestion = sample.congestion_loss_rate();
    if (corruption > 0.0) {
      corr_acc[sample.direction.value()].add(
          sample.utilization, std::log10(std::max(corruption, 1e-10)));
    }
    if (congestion > 0.0) {
      cong_acc[sample.direction.value()].add(
          sample.utilization, std::log10(std::max(congestion, 1e-10)));
    }
  });

  stats::RunningStats corruption_r, congestion_r;
  std::size_t corrupting = 0, congested = 0;
  for (auto& [dir, acc] : corr_acc) {
    if (acc.count() > 20) {
      corruption_r.add(acc.correlation());
      ++corrupting;
    }
  }
  for (auto& [dir, acc] : cong_acc) {
    if (acc.count() > 20) {
      congestion_r.add(acc.correlation());
      ++congested;
    }
  }
  ASSERT_GT(corrupting, 3u);
  ASSERT_GT(congested, 3u);
  // Paper: mean 0.19 for corruption vs 0.62 for congestion.
  EXPECT_LT(std::abs(corruption_r.mean()), 0.3);
  EXPECT_GT(congestion_r.mean(), 0.4);
}

TEST(MeasurementStudy, DeterministicAcrossRuns) {
  const auto topo = topology::build_fat_tree(4);
  StudyConfig config;
  config.days = 1;
  config.epoch = 6 * common::kHour;
  double sum_a = 0.0, sum_b = 0.0;
  {
    MeasurementStudy study(topo, config);
    for_each_sample(topo, study, config, [&](const telemetry::PollSample& s) {
      sum_a += static_cast<double>(s.corruption_drops) + s.utilization;
    });
  }
  {
    MeasurementStudy study(topo, config);
    for_each_sample(topo, study, config, [&](const telemetry::PollSample& s) {
      sum_b += static_cast<double>(s.corruption_drops) + s.utilization;
    });
  }
  EXPECT_DOUBLE_EQ(sum_a, sum_b);
}

}  // namespace
}  // namespace corropt::analysis
