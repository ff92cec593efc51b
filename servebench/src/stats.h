#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace servebench {

/// Exact nearest-rank percentile of `samples` (any order): the value at
/// rank ceil(q * n) of the sorted samples, 0 < q <= 1. No interpolation
/// and no bucketing, so every reported figure is a measured sample.
/// Returns 0 for an empty input.
double Percentile(std::vector<double> samples, double q);

/// The median, as `Percentile(samples, 0.5)`.
double Median(std::vector<double> samples);

/// How many of `n` samples lie strictly above the nearest-rank q-th
/// percentile's rank: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// The highest of `candidates` (each in (0, 1]) whose percentile keeps at
/// least `min_beyond` of `n` samples beyond it; 0 when none does. With
/// the default candidates and min_beyond = 10, n >= 200 selects 0.95.
double HighestSupportedPercentile(
    size_t n, size_t min_beyond = 10,
    const std::vector<double>& candidates = {0.999, 0.99, 0.95, 0.9, 0.75,
                                             0.5});

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
