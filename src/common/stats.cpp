#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace soma {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  if (q <= 0.0) return *std::ranges::min_element(samples);
  if (q >= 100.0) return *std::ranges::max_element(samples);
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  if (lower + 1 >= samples.size()) return *std::ranges::max_element(samples);
  // The two order statistics a full sort would put at `lower` and
  // `lower + 1`: a selection, then the least of what it put above.
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(lower);
  std::ranges::nth_element(samples, nth);
  const double above = *std::ranges::min_element(nth + 1, samples.end());
  return *nth * (1.0 - frac) + above * frac;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;

  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  double sq = 0.0;
  for (double x : samples) sq += (x - s.mean) * (x - s.mean);
  s.stddev = samples.size() > 1
                 ? std::sqrt(sq / static_cast<double>(samples.size() - 1))
                 : 0.0;

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = percentile(sorted, 50.0);
  s.p25 = percentile(sorted, 25.0);
  s.p75 = percentile(sorted, 75.0);
  s.p95 = percentile(sorted, 95.0);
  return s;
}

double load_imbalance(const std::vector<double>& per_rank_values) {
  if (per_rank_values.empty()) return 0.0;
  const double sum = std::accumulate(per_rank_values.begin(),
                                     per_rank_values.end(), 0.0);
  const double mean = sum / static_cast<double>(per_rank_values.size());
  if (mean == 0.0) return 0.0;
  const double max =
      *std::max_element(per_rank_values.begin(), per_rank_values.end());
  return max / mean - 1.0;
}

}  // namespace soma
