// Edge-case coverage for the exact histogram: the empty and single-sample
// cases must be deterministic (no aborts, no UB) because empty runs reach
// Summarize()/Quantile() through the zero-activity export paths.
#include "driver/histogram.h"

#include <gtest/gtest.h>

namespace sdps::driver {
namespace {

TEST(HistogramEdgeCaseTest, EmptyHistogramStatisticsAreZero) {
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
  EXPECT_EQ(h.Quantile(1.0), 0);
}

TEST(HistogramEdgeCaseTest, EmptySummaryIsAllZeros) {
  const Histogram h;
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.avg_s, 0.0);
  EXPECT_DOUBLE_EQ(s.min_s, 0.0);
  EXPECT_DOUBLE_EQ(s.max_s, 0.0);
  EXPECT_DOUBLE_EQ(s.p90_s, 0.0);
  EXPECT_DOUBLE_EQ(s.p95_s, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_s, 0.0);
}

TEST(HistogramEdgeCaseTest, SingleSampleIsEveryQuantile) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Min(), 42);
  EXPECT_EQ(h.Max(), 42);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 42) << "q=" << q;
  }
}

TEST(HistogramEdgeCaseTest, ClearRestoresEmptySemantics) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  h.Clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Quantile(0.99), 0);
  EXPECT_EQ(h.Max(), 0);
}

TEST(HistogramEdgeCaseTest, TwoSamplesNearestRankIsExact) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  EXPECT_EQ(h.Quantile(0.0), 10);
  EXPECT_EQ(h.Quantile(0.49), 10);  // rank rounds down
  EXPECT_EQ(h.Quantile(0.51), 20);  // rank rounds up
  EXPECT_EQ(h.Quantile(1.0), 20);
}

}  // namespace
TEST(HistogramEdgeCaseTest, QuantilesBySelectionMatchQuantile) {
  for (const size_t n : {1u, 2u, 7u, 1000u, 12345u}) {
    Histogram selected;
    Histogram sorted;
    uint64_t x = 88172645463325252ull;
    for (size_t i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const SimTime v = static_cast<SimTime>(x % 100000);
      selected.Add(v);
      sorted.Add(v);
    }
    const double qs[] = {0.0, 0.5, 0.5, 0.9, 0.95, 0.99, 1.0};
    SimTime got[7];
    selected.Quantiles(qs, 7, got);
    for (size_t i = 0; i < 7; ++i) {
      EXPECT_EQ(got[i], sorted.Quantile(qs[i])) << "n=" << n << " q=" << qs[i];
    }
  }
}

}  // namespace sdps::driver
