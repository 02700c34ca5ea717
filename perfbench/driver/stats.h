#ifndef FRONTIERS_PERFBENCH_STATS_H_
#define FRONTIERS_PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Order statistics of one timing series.
struct Summary {
  size_t count = 0;
  double median = 0.0;
  /// The highest percentile of {75, 90, 95, 99, 99.9} that has at least
  /// ten samples beyond it; 0 when the series is too short for any of
  /// them (fewer than 40 samples), in which case `tail` is unset.
  double tail_percentile = 0.0;
  double tail = 0.0;
};

/// The `q`-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between order statistics.  `values` must be non-empty.
double Quantile(std::vector<double> values, double q);

/// Median and tail percentile of `values` with their sample count.  An
/// empty series yields a zero Summary.
Summary Summarize(const std::vector<double>& values);

}  // namespace perfbench

#endif  // FRONTIERS_PERFBENCH_STATS_H_
