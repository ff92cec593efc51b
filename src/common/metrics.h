#ifndef KWDB_COMMON_METRICS_H_
#define KWDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace kws {

/// A fixed-bucket latency histogram over microseconds. Bucket `i` covers
/// `[2^i, 2^(i+1))` us (bucket 0 covers `[0, 2)`), spanning sub-microsecond
/// to ~2200 seconds in 32 buckets. Recording is a relaxed atomic increment;
/// percentile reads interpolate within the winning bucket, so quantiles are
/// exact to within one power of two — plenty for p50/p95/p99 tail
/// reporting, and snapshot-consistent enough under concurrent writers.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 32;

  /// Bucket index for a value in microseconds: floor(log2(us)), clamped
  /// to the bucket range. Shared with the windowed histograms
  /// (`kws::obs`) so every histogram in the system buckets identically.
  static size_t BucketIndexFor(double micros);

  /// Inclusive lower edge of bucket `i`, microseconds.
  static double BucketLowerMicros(size_t i);

  /// Exclusive upper edge of bucket `i`, microseconds.
  static double BucketUpperMicros(size_t i);

  /// The `p`-quantile of an arbitrary bucket-count array laid out under
  /// this class's bucketing scheme, with linear interpolation inside the
  /// winning bucket; 0 when the counts sum to zero. The building block
  /// behind `PercentileMicros` here and the windowed merge in
  /// `kws::obs::WindowedHistogram`.
  static double PercentileOfBuckets(
      const std::array<uint64_t, kNumBuckets>& counts, double p);

  /// Records one observation. Thread-safe.
  void Record(double micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Sum of all recorded values, in microseconds.
  double sum_micros() const;

  /// Mean of all recorded values; 0 when empty.
  double MeanMicros() const;

  /// The `p`-quantile (p in [0,1]) with linear interpolation inside the
  /// winning bucket; 0 when empty.
  double PercentileMicros(double p) const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  /// Sum in nanoseconds so the atomic stays integral.
  std::atomic<uint64_t> sum_nanos_{0};
};

}  // namespace kws

#endif  // KWDB_COMMON_METRICS_H_
