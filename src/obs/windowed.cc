#include "obs/windowed.h"

#include <cmath>

#include "common/check.h"

namespace kws::obs {

namespace {

/// Slots in the ring: one per retained window plus one spare, so the
/// slot being recycled for the new current window is never one a reader
/// still counts as live.
size_t RingSize(const WindowOptions& options) {
  KWS_CHECK_MSG(options.num_windows >= 1, "num_windows must be >= 1");
  KWS_CHECK_MSG(options.window_micros >= 1, "window_micros must be >= 1");
  return options.num_windows + 1;
}

uint64_t NowEpoch(const Clock& clock, const WindowOptions& options) {
  return clock.NowMicros() / options.window_micros;
}

/// The ring slot for `epoch`, recycled (`Slot::Reset`, then the tag
/// bumped) if a stale window still occupies it. Returns nullptr when
/// `epoch` has already been rotated past (a laggard writer). Shared by
/// both instruments; only the slot layout differs.
template <typename Slot>
Slot* AcquireSlot(std::vector<Slot>& ring, std::mutex& rotate_mu,
                  uint64_t epoch) {
  Slot& slot = ring[epoch % ring.size()];
  const uint64_t tag = epoch + 1;
  uint64_t cur = slot.tag.load(std::memory_order_acquire);
  if (cur == tag) return &slot;
  std::lock_guard<std::mutex> lock(rotate_mu);
  cur = slot.tag.load(std::memory_order_relaxed);
  if (cur > tag) return nullptr;  // rotated past this epoch already
  if (cur != tag) {
    slot.Reset();
    slot.tag.store(tag, std::memory_order_release);
  }
  return &slot;
}

/// Calls `visit(age, slot)` for every live window still resident in the
/// ring, `age` counting back from the current window (0) to the oldest
/// retained one (`num_windows - 1`). Windows before the clock origin, or
/// whose slot has been recycled or never used, are skipped.
template <typename Slot, typename Visit>
void ForEachLiveWindow(const std::vector<Slot>& ring, uint64_t now_epoch,
                       size_t num_windows, Visit visit) {
  for (size_t age = 0; age < num_windows && age <= now_epoch; ++age) {
    const uint64_t epoch = now_epoch - age;
    const Slot& slot = ring[epoch % ring.size()];
    if (slot.tag.load(std::memory_order_acquire) != epoch + 1) continue;
    visit(age, slot);
  }
}

}  // namespace

WindowedCounter::WindowedCounter(const Clock* clock,
                                 const WindowOptions& options)
    : clock_(clock != nullptr ? clock : DefaultClock()),
      options_(options),
      ring_(RingSize(options_)) {}

void WindowedCounter::Add(uint64_t n) {
  total_.fetch_add(n, std::memory_order_relaxed);
  Slot* slot = AcquireSlot(ring_, rotate_mu_, NowEpoch(*clock_, options_));
  if (slot == nullptr) return;  // laggard past a full ring rotation
  slot->count.fetch_add(n, std::memory_order_relaxed);
}

uint64_t WindowedCounter::TotalInWindows() const {
  uint64_t sum = 0;
  for (uint64_t c : WindowSnapshot()) sum += c;
  return sum;
}

std::vector<uint64_t> WindowedCounter::WindowSnapshot() const {
  const size_t n = options_.num_windows;
  std::vector<uint64_t> out(n, 0);
  ForEachLiveWindow(ring_, NowEpoch(*clock_, options_), n,
                    [&](size_t age, const Slot& slot) {
                      out[n - 1 - age] =
                          slot.count.load(std::memory_order_relaxed);
                    });
  return out;
}

double WindowedCounter::RatePerSecond() const {
  const double span_seconds =
      static_cast<double>(options_.num_windows) *
      static_cast<double>(options_.window_micros) / 1e6;
  return static_cast<double>(TotalInWindows()) / span_seconds;
}

WindowedHistogram::WindowedHistogram(const Clock* clock,
                                     const WindowOptions& options)
    : clock_(clock != nullptr ? clock : DefaultClock()),
      options_(options),
      ring_(RingSize(options_)) {}

void WindowedHistogram::Record(double micros) {
  if (micros < 0 || !std::isfinite(micros)) micros = 0;
  total_.Record(micros);
  Slot* slot = AcquireSlot(ring_, rotate_mu_, NowEpoch(*clock_, options_));
  if (slot == nullptr) return;  // laggard past a full ring rotation
  slot->buckets[LatencyHistogram::BucketIndexFor(micros)].fetch_add(
      1, std::memory_order_relaxed);
  slot->count.fetch_add(1, std::memory_order_relaxed);
  slot->sum_nanos.fetch_add(static_cast<uint64_t>(micros * 1000.0),
                            std::memory_order_relaxed);
}

void WindowedHistogram::MergeWindows(
    std::array<uint64_t, LatencyHistogram::kNumBuckets>* out,
    uint64_t* count, uint64_t* sum_nanos) const {
  out->fill(0);
  *count = 0;
  *sum_nanos = 0;
  ForEachLiveWindow(
      ring_, NowEpoch(*clock_, options_), options_.num_windows,
      [&](size_t /*age*/, const Slot& slot) {
        *count += slot.count.load(std::memory_order_relaxed);
        *sum_nanos += slot.sum_nanos.load(std::memory_order_relaxed);
        for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
          (*out)[i] += slot.buckets[i].load(std::memory_order_relaxed);
        }
      });
}

uint64_t WindowedHistogram::CountInWindows() const {
  std::array<uint64_t, LatencyHistogram::kNumBuckets> merged;
  uint64_t count = 0;
  uint64_t sum = 0;
  MergeWindows(&merged, &count, &sum);
  return count;
}

double WindowedHistogram::MeanMicros() const {
  std::array<uint64_t, LatencyHistogram::kNumBuckets> merged;
  uint64_t count = 0;
  uint64_t sum = 0;
  MergeWindows(&merged, &count, &sum);
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / 1000.0 / static_cast<double>(count);
}

double WindowedHistogram::PercentileMicros(double p) const {
  std::array<uint64_t, LatencyHistogram::kNumBuckets> merged;
  uint64_t count = 0;
  uint64_t sum = 0;
  MergeWindows(&merged, &count, &sum);
  return LatencyHistogram::PercentileOfBuckets(merged, p);
}

}  // namespace kws::obs
