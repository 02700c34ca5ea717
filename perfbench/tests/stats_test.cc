#include "driver/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.75), 4.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.9), 7.0);
}

TEST(SummarizeTest, EmptySeriesIsZero) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.tail_percentile, 0.0);
}

TEST(SummarizeTest, ShortSeriesReportsOnlyTheMedian) {
  std::vector<double> values;
  for (int i = 39; i >= 1; --i) values.push_back(i);
  const Summary s = Summarize(values);
  EXPECT_EQ(s.count, 39u);
  EXPECT_DOUBLE_EQ(s.median, 20.0);
  // 39 samples leave fewer than ten beyond even the 75th percentile.
  EXPECT_EQ(s.tail_percentile, 0.0);
}

TEST(SummarizeTest, PicksTheHighestPercentileWithTenSamplesBeyondIt) {
  struct Case {
    int count;
    double percentile;
  };
  for (const Case& c : {Case{40, 75.0}, Case{100, 90.0}, Case{199, 90.0},
                        Case{200, 95.0}, Case{1000, 99.0},
                        Case{10000, 99.9}}) {
    std::vector<double> values;
    for (int i = 1; i <= c.count; ++i) values.push_back(i);
    const Summary s = Summarize(values);
    EXPECT_EQ(s.count, static_cast<size_t>(c.count));
    EXPECT_EQ(s.tail_percentile, c.percentile) << c.count;
    size_t beyond = 0;
    for (double v : values) beyond += v > s.tail ? 1 : 0;
    EXPECT_GE(beyond, 10u) << c.count;
    EXPECT_DOUBLE_EQ(s.median, (c.count + 1) / 2.0);
  }
}

}  // namespace
}  // namespace perfbench
