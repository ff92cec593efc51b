#include "stats.h"

#include <algorithm>
#include <cmath>

namespace servebench {

namespace {

/// ceil(q * n) without letting floating-point error push an exact product
/// (e.g. 0.95 * 200) up by one rank.
size_t RankOf(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const double nearest = std::round(exact);
  const size_t rank = std::fabs(exact - nearest) < 1e-9
                          ? static_cast<size_t>(nearest)
                          : static_cast<size_t>(std::ceil(exact));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const size_t rank = RankOf(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - RankOf(n, q);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond,
                                  const std::vector<double>& candidates) {
  double best = 0;
  for (double q : candidates) {
    if (q > best && SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

}  // namespace servebench
