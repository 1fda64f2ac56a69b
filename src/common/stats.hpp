// Summary statistics over samples. Used by the analysis layer and by every
// bench that reports distributions (means, percentiles, box plots).
#pragma once

#include <cstddef>
#include <vector>

namespace soma {

/// Descriptive statistics of a sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
};

/// Compute a Summary. An empty input yields an all-zero Summary.
Summary summarize(const std::vector<double>& samples);

/// Linear-interpolated percentile, q in [0, 100]. Empty input yields 0.
double percentile(std::vector<double> samples, double q);

/// Load-imbalance metric across ranks: max / mean - 1. Zero means perfectly
/// balanced. Empty or zero-mean input yields 0.
double load_imbalance(const std::vector<double>& per_rank_values);

}  // namespace soma
