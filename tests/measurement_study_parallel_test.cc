// Determinism contract of the sharded measurement study (DESIGN.md §9):
// the synthesized result is bit-identical for any thread count, and
// with or without the loss-capable fast path.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/measurement_study.h"
#include "analysis/study_accumulators.h"
#include "common/thread_pool.h"
#include "common/time.h"
#include "topology/fat_tree.h"

namespace corropt::analysis {
namespace {

using telemetry::PollSample;

StudyConfig small_config(common::SimDuration epoch) {
  StudyConfig config;
  config.days = 2;
  config.epoch = epoch;
  config.corrupting_link_fraction = 0.05;
  config.seed = 123;
  return config;
}

common::DirectionId direction(std::size_t i) {
  return common::DirectionId(
      static_cast<common::DirectionId::underlying_type>(i));
}

// Both accumulators span `directions` directions.
void expect_same_totals(const DirectionTotalsAccumulator& a,
                        const DirectionTotalsAccumulator& b,
                        std::size_t directions) {
  for (std::size_t i = 0; i < directions; ++i) {
    EXPECT_EQ(a[direction(i)].packets, b[direction(i)].packets) << "dir " << i;
    EXPECT_EQ(a[direction(i)].corruption_drops,
              b[direction(i)].corruption_drops)
        << "dir " << i;
    EXPECT_EQ(a[direction(i)].congestion_drops,
              b[direction(i)].congestion_drops)
        << "dir " << i;
  }
}

// DirectionTotalsAccumulator without the kLossCapableOnly trait: the
// engine must then synthesize every direction of the fabric.
struct FullScanTotals {
  DirectionTotalsAccumulator inner;
  explicit FullScanTotals(std::size_t directions) : inner(directions) {}
  using Partial = DirectionTotalsAccumulator::Partial;
  [[nodiscard]] Partial make_partial() const { return inner.make_partial(); }
  void merge(Partial& p) { inner.merge(p); }
};

TEST(MeasurementStudyParallel, ThreadCountDoesNotChangeTheResult) {
  const auto topo = topology::build_fat_tree(8);
  // Both a sub-poll-aligned and an hour epoch: the keyed generator must
  // be insensitive to how many samples precede a given (dir, epoch).
  for (const common::SimDuration epoch :
       {common::kPollInterval, common::kHour}) {
    const MeasurementStudy study(topo, small_config(epoch));

    DirectionTotalsAccumulator sequential(topo.direction_count());
    study.run(sequential, nullptr);

    DirectionTotalsAccumulator one_thread(topo.direction_count());
    common::ThreadPool pool1(1);
    study.run(one_thread, &pool1);
    expect_same_totals(sequential, one_thread, topo.direction_count());

    DirectionTotalsAccumulator eight_threads(topo.direction_count());
    common::ThreadPool pool8(8);
    study.run(eight_threads, &pool8);
    expect_same_totals(sequential, eight_threads, topo.direction_count());
  }
}

TEST(MeasurementStudyParallel, LossCapableFastPathMatchesFullScan) {
  const auto topo = topology::build_fat_tree(8);
  const MeasurementStudy study(topo, small_config(common::kHour));
  // The fast path must actually skip something on this fabric, or the
  // test is vacuous.
  ASSERT_LT(study.loss_capable_directions(), topo.direction_count());
  ASSERT_GT(study.loss_capable_directions(), 0u);

  common::ThreadPool pool(4);
  DirectionTotalsAccumulator lossy(topo.direction_count());
  study.run(lossy, &pool);
  FullScanTotals full(topo.direction_count());
  study.run(full, &pool);

  // Packets differ (skipped directions never tally any), but every drop
  // count matches: skipped directions provably drop nothing. Every
  // direction the fast path visits carries traffic, so the skipped ones
  // are exactly those without packets.
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < topo.direction_count(); ++i) {
    const auto& fast = lossy[direction(i)];
    const auto& scanned = full.inner[direction(i)];
    EXPECT_EQ(fast.corruption_drops, scanned.corruption_drops) << "dir " << i;
    EXPECT_EQ(fast.congestion_drops, scanned.congestion_drops) << "dir " << i;
    if (fast.packets == 0) {
      ++skipped;
      EXPECT_EQ(scanned.corruption_drops, 0u);
      EXPECT_EQ(scanned.congestion_drops, 0u);
    }
  }
  EXPECT_EQ(skipped, topo.direction_count() - study.loss_capable_directions());
}

TEST(MeasurementStudyParallel, SampleGridMatchesAccumulatorRun) {
  const auto topo = topology::build_fat_tree(8);
  const StudyConfig config = small_config(common::kHour);
  const MeasurementStudy study(topo, config);

  FullScanTotals from_accumulator(topo.direction_count());
  study.run(from_accumulator, nullptr);

  // Every (direction, epoch) of the window through sample(), one partial,
  // direction-major: run() must cover exactly this grid.
  DirectionTotalsAccumulator from_grid(topo.direction_count());
  auto partial = from_grid.make_partial();
  std::size_t samples = 0;
  for (std::size_t d = 0; d < topo.direction_count(); ++d) {
    const common::DirectionId dir(
        static_cast<common::DirectionId::underlying_type>(d));
    for (common::SimTime t = 0; t < config.days * common::kDay;
         t += config.epoch) {
      partial.add(study.sample(dir, t));
      ++samples;
    }
  }
  from_grid.merge(partial);

  const auto epochs = static_cast<std::size_t>(
      2 * (common::kDay / common::kHour));
  EXPECT_EQ(samples, topo.direction_count() * epochs);
  expect_same_totals(from_grid, from_accumulator.inner,
                     topo.direction_count());
}

TEST(MeasurementStudyParallel, RunManyMatchesSoloRuns) {
  const auto topo_a = topology::build_fat_tree(8);
  const auto topo_b = topology::build_fat_tree(10);
  StudyConfig config_b = small_config(common::kHour);
  config_b.seed = 321;
  const MeasurementStudy a(topo_a, small_config(common::kHour));
  const MeasurementStudy b(topo_b, config_b);

  common::ThreadPool pool(4);
  std::vector<DirectionTotalsAccumulator> combined(
      2, DirectionTotalsAccumulator(0));
  combined[0] = DirectionTotalsAccumulator(topo_a.direction_count());
  combined[1] = DirectionTotalsAccumulator(topo_b.direction_count());
  MeasurementStudy::run_many<DirectionTotalsAccumulator>({&a, &b}, combined,
                                                         &pool);

  DirectionTotalsAccumulator solo_a(topo_a.direction_count());
  a.run(solo_a, &pool);
  DirectionTotalsAccumulator solo_b(topo_b.direction_count());
  b.run(solo_b, &pool);
  expect_same_totals(combined[0], solo_a, topo_a.direction_count());
  expect_same_totals(combined[1], solo_b, topo_b.direction_count());
}

}  // namespace
}  // namespace corropt::analysis
