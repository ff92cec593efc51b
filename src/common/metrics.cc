#include "common/metrics.h"

#include <algorithm>
#include <cmath>

namespace kws {

size_t LatencyHistogram::BucketIndexFor(double micros) {
  if (micros < 2.0) return 0;
  const double lg = std::log2(micros);
  const size_t idx = static_cast<size_t>(lg);
  return std::min(idx, kNumBuckets - 1);
}

double LatencyHistogram::BucketLowerMicros(size_t i) {
  return i == 0 ? 0.0 : std::exp2(static_cast<double>(i));
}

double LatencyHistogram::BucketUpperMicros(size_t i) {
  return std::exp2(static_cast<double>(i + 1));
}

double LatencyHistogram::PercentileOfBuckets(
    const std::array<uint64_t, kNumBuckets>& counts, double p) {
  p = std::clamp(p, 0.0, 1.0);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) >= target) {
      // Interpolate linearly inside this bucket.
      const double into =
          std::clamp((target - static_cast<double>(seen)) /
                         static_cast<double>(counts[i]),
                     0.0, 1.0);
      return BucketLowerMicros(i) +
             into * (BucketUpperMicros(i) - BucketLowerMicros(i));
    }
    seen += counts[i];
  }
  return BucketUpperMicros(kNumBuckets - 1);
}

void LatencyHistogram::Record(double micros) {
  if (micros < 0 || !std::isfinite(micros)) micros = 0;
  buckets_[BucketIndexFor(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<uint64_t>(micros * 1000.0),
                       std::memory_order_relaxed);
}

double LatencyHistogram::sum_micros() const {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) /
         1000.0;
}

double LatencyHistogram::MeanMicros() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum_micros() / static_cast<double>(n);
}

double LatencyHistogram::PercentileMicros(double p) const {
  // Snapshot the buckets (writers may race; each load is atomic and the
  // result is a valid approximate snapshot).
  std::array<uint64_t, kNumBuckets> snap;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return PercentileOfBuckets(snap, p);
}

}  // namespace kws
