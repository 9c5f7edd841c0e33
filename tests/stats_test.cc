#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "stats/cdf.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats_oracles.h"

namespace corropt::stats {
namespace {

using testing::pearson;
using testing::pearson_log;

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.coefficient_of_variation(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.coefficient_of_variation(), 0.4);
}

TEST(RunningStats, MergeEqualsPooled) {
  common::Rng rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(2.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Descriptive, SingleElement) {
  const std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(mean(v), 42.0);
  EXPECT_DOUBLE_EQ(EmpiricalCdf(v).quantile(0.3), 42.0);
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg(y.rbegin(), y.rend());
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, IndependentNearZero) {
  common::Rng rng(5);
  std::vector<double> x(5000), y(5000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
}

TEST(Pearson, LogVariantUsesFloor) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {0.0, 1e-6, 1e-4, 1e-2};
  // log10 with floor turns y into an affine ramp above the floor, so the
  // correlation is strongly positive and finite.
  const double r = pearson_log(x, y, 1e-10);
  EXPECT_GT(r, 0.9);
  EXPECT_TRUE(std::isfinite(r));
}

TEST(PearsonAccumulator, MatchesBatch) {
  common::Rng rng(8);
  std::vector<double> x, y;
  PearsonAccumulator acc;
  for (int i = 0; i < 300; ++i) {
    const double xv = rng.uniform();
    const double yv = 0.7 * xv + 0.3 * rng.uniform();
    x.push_back(xv);
    y.push_back(yv);
    acc.add(xv, yv);
  }
  EXPECT_NEAR(acc.correlation(), pearson(x, y), 1e-9);
  EXPECT_EQ(acc.count(), 300u);
}

TEST(PearsonAccumulator, DegenerateIsZero) {
  PearsonAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.correlation(), 0.0);
  acc.add(1.0, 2.0);
  EXPECT_DOUBLE_EQ(acc.correlation(), 0.0);
  acc.add(1.0, 3.0);  // zero x-variance
  EXPECT_DOUBLE_EQ(acc.correlation(), 0.0);
}

TEST(Cdf, FractionsAndQuantiles) {
  EmpiricalCdf cdf;
  for (double v : {4.0, 1.0, 3.0, 2.0}) cdf.add(v);
  // Nearest rank: the smallest sample whose CDF value reaches q.
  EXPECT_DOUBLE_EQ(cdf.quantile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.26), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.75), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  cdf.add(0.0);  // Re-sorts lazily on the next query.
  EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 0.0);
  // Five samples: the second-smallest holds up to F = 0.4.
  EXPECT_DOUBLE_EQ(cdf.quantile(0.4), 1.0);
}

TEST(Cdf, SeriesIsMonotone) {
  common::Rng rng(10);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(rng.normal());
  EmpiricalCdf cdf(samples);
  double previous = *std::min_element(samples.begin(), samples.end());
  for (int i = 1; i <= 50; ++i) {
    const double value = cdf.quantile(i / 50.0);
    EXPECT_GE(value, previous);
    previous = value;
  }
  EXPECT_DOUBLE_EQ(previous,
                   *std::max_element(samples.begin(), samples.end()));
}

TEST(LossBuckets, Table1EdgesAndLabels) {
  LossBucketHistogram h = LossBucketHistogram::table1();
  ASSERT_EQ(h.bucket_count(), 4u);
  h.add(5e-7);   // bucket 0
  h.add(2e-5);   // bucket 1
  h.add(5e-4);   // bucket 2
  h.add(1e-3);   // bucket 3 (closed lower edge)
  h.add(0.5);    // bucket 3
  h.add(1e-9);   // below lossy threshold: not counted
  EXPECT_EQ(h.total(), 5u);
  const auto norm = h.normalized();
  EXPECT_DOUBLE_EQ(norm[0], 0.2);
  EXPECT_DOUBLE_EQ(norm[1], 0.2);
  EXPECT_DOUBLE_EQ(norm[2], 0.2);
  EXPECT_DOUBLE_EQ(norm[3], 0.4);
  EXPECT_EQ(h.label(3), "[1e-03+)");
}

TEST(LossBuckets, BoundaryExactlyOnEdge) {
  LossBucketHistogram h = LossBucketHistogram::table1();
  h.add(1e-5);
  const auto norm = h.normalized();
  EXPECT_DOUBLE_EQ(norm[0], 0.0);
  EXPECT_DOUBLE_EQ(norm[1], 1.0);
}

}  // namespace
}  // namespace corropt::stats
