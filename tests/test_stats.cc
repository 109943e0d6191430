// Tests for streaming statistics (simkit/stats.h).
#include "simkit/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "simkit/rng.h"

namespace fvsst::sim {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleSampleVarianceZero) {
  RunningStat s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
}

TEST(RunningStat, MergeMatchesCombined) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(TimeWeightedStat, PiecewiseConstantMean) {
  TimeWeightedStat s;
  s.record(0.0, 10.0);  // 10 for [0, 2)
  s.record(2.0, 20.0);  // 20 for [2, 3)
  EXPECT_NEAR(s.mean_until(3.0), (10.0 * 2 + 20.0 * 1) / 3.0, 1e-12);
}

TEST(TimeWeightedStat, IntegralIsEnergy) {
  TimeWeightedStat s;
  s.record(0.0, 100.0);
  s.record(5.0, 50.0);
  // 100 W for 5 s + 50 W for 5 s = 750 J.
  EXPECT_NEAR(s.integral_until(10.0), 750.0, 1e-9);
}

TEST(TimeWeightedStat, RepeatedSameTimeKeepsLast) {
  TimeWeightedStat s;
  s.record(0.0, 1.0);
  s.record(0.0, 9.0);  // overrides before any time passes
  EXPECT_NEAR(s.mean_until(1.0), 9.0, 1e-12);
}

TEST(TimeWeightedStat, EmptyIsZero) {
  TimeWeightedStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean_until(5.0), 0.0);
  EXPECT_DOUBLE_EQ(s.integral_until(5.0), 0.0);
}

TEST(Histogram, BinningAndFractions) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(3.0);   // bin 1
  h.add(9.99);  // bin 4
  h.add(9.99);  // bin 4
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.fraction(4), 0.5);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(+100.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, WeightedSamples) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 3.0);
  h.add(0.75, 1.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

TEST(CategoryHistogram, ExactKeys) {
  CategoryHistogram h;
  h.add(650e6, 2.0);
  h.add(1000e6, 1.0);
  h.add(650e6, 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.fraction(650e6), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction(1000e6), 0.25);
  EXPECT_DOUBLE_EQ(h.fraction(42.0), 0.0);
}

TEST(CategoryHistogram, SortedAscending) {
  CategoryHistogram h;
  h.add(3.0);
  h.add(1.0);
  h.add(2.0);
  const auto entries = h.sorted();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_DOUBLE_EQ(entries[0].key, 1.0);
  EXPECT_DOUBLE_EQ(entries[1].key, 2.0);
  EXPECT_DOUBLE_EQ(entries[2].key, 3.0);
}

TEST(CategoryHistogram, EmptyFractionIsZero) {
  CategoryHistogram h;
  EXPECT_DOUBLE_EQ(h.fraction(1.0), 0.0);
  EXPECT_TRUE(h.sorted().empty());
}

// Histogram::quantile is a total function: every input returns a value
// (possibly NaN), nothing throws, and the endpoints pin to the observed
// support rather than the configured range.

TEST(HistogramQuantile, EmptyReturnsNaN) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.quantile(0.0)));
  EXPECT_TRUE(std::isnan(h.quantile(1.0)));
}

TEST(HistogramQuantile, NaNProbabilityReturnsNaN) {
  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  EXPECT_TRUE(std::isnan(h.quantile(std::nan(""))));
}

TEST(HistogramQuantile, ProbabilityClampsIntoUnitInterval) {
  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(HistogramQuantile, EndpointsPinToObservedSupport) {
  Histogram h(0.0, 10.0, 10);
  h.add(5.2);  // lands in bin [5, 6)
  // A single sample spans exactly its own bin, not the configured range.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 6.0);
}

TEST(HistogramQuantile, InterpolatesWithinCrossingBin) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 4; ++i) h.add(2.5);  // bin [2, 3)
  for (int i = 0; i < 4; ++i) h.add(7.5);  // bin [7, 8)
  // The median falls between the two occupied bins; whichever bin the
  // cumulative crossing lands in, the estimate stays inside the support.
  const double median = h.quantile(0.5);
  EXPECT_GE(median, 2.0);
  EXPECT_LE(median, 8.0);
  // p = 0.25 sits mid-way through the first bin's mass.
  EXPECT_NEAR(h.quantile(0.25), 2.5, 0.51);
}

TEST(HistogramQuantile, MonotoneInProbability) {
  Histogram h(0.0, 100.0, 50);
  unsigned state = 12345;
  for (int i = 0; i < 1000; ++i) {
    state = state * 1664525u + 1013904223u;
    h.add(static_cast<double>(state % 10000u) / 100.0);
  }
  double prev = h.quantile(0.0);
  for (double p = 0.05; p <= 1.0 + 1e-12; p += 0.05) {
    const double q = h.quantile(p);
    EXPECT_GE(q, prev - 1e-12) << "p=" << p;
    prev = q;
  }
}

// --- SampleSet (exact order statistics) -----------------------------------

TEST(SampleSetPercentile, InterleavedQueriesMatchFreshSort) {
  // Batches of random values with many duplicates, each followed by a few
  // queries: the merged sorted prefix must give exactly the nearest-rank
  // values a freshly sorted copy gives.
  Rng rng(0x5e7);
  SampleSet set;
  std::vector<double> reference;
  const double ps[] = {0.0, 0.01, 0.25, 0.5, 0.5001, 0.9, 0.99, 1.0};
  for (int batch = 0; batch < 60; ++batch) {
    const auto k = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < k; ++i) {
      // 25 distinct values: duplicates land on both sides of every merge.
      const double x = static_cast<double>(rng.uniform_int(0, 24)) * 0.5;
      set.add(x);
      reference.push_back(x);
    }
    if (reference.empty()) continue;
    std::vector<double> sorted = reference;
    std::sort(sorted.begin(), sorted.end());
    for (double p : ps) {
      auto rank = static_cast<std::size_t>(
          std::ceil(p * static_cast<double>(sorted.size())));
      if (rank > 0) --rank;
      EXPECT_EQ(set.percentile(p), sorted[rank])
          << "batch " << batch << " p=" << p;
    }
    EXPECT_EQ(set.count(), reference.size());
  }
}

}  // namespace
}  // namespace fvsst::sim
