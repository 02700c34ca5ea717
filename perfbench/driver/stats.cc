#include "driver/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.median = Quantile(values, 0.5);
  // Percentiles in per-mille, so the "ten samples beyond it" test is exact
  // integer arithmetic: count * (1 - p) >= 10.
  for (size_t permille : {999u, 990u, 950u, 900u, 750u}) {
    if (values.size() * (1000 - permille) >= 10000) {
      s.tail_percentile = static_cast<double>(permille) / 10.0;
      s.tail = Quantile(values, static_cast<double>(permille) / 1000.0);
      break;
    }
  }
  return s;
}

}  // namespace perfbench
