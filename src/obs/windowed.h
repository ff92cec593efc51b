#ifndef KWDB_OBS_WINDOWED_H_
#define KWDB_OBS_WINDOWED_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "obs/clock.h"

namespace kws::obs {

/// Shared shape of every windowed instrument: time is cut into
/// fixed-width windows (`window_micros`), and the instrument keeps the
/// most recent `num_windows` of them in a ring. Window readings answer
/// "what happened recently"; each instrument also keeps a lifetime total
/// that never decays, so one instrument serves both questions.
struct WindowOptions {
  /// Width of one window. Window `w` covers
  /// `[w * window_micros, (w + 1) * window_micros)` on the clock.
  uint64_t window_micros = 1'000'000;
  /// Windows retained: the current (partial) one plus `num_windows - 1`
  /// completed ones.
  size_t num_windows = 8;
};

/// A counter over a ring of epoch buckets: `Add` lands in the window the
/// injected clock says is current, and reads aggregate the live windows
/// only — anything older has been recycled. Rates therefore decay to
/// zero when traffic stops, while `total()` keeps the lifetime count.
///
/// Thread-safety: bumps are relaxed atomics; window rotation (the first
/// `Add` of a new window recycling the oldest slot) takes a mutex. A
/// writer whose clock read predates a full ring rotation drops its
/// increment into no window (the window it belongs to no longer exists);
/// the lifetime `total()` still counts it. Under a `ManualClock`
/// advanced between quiescent phases every reading is exact and
/// deterministic.
class WindowedCounter {
 public:
  /// `clock` must outlive the instrument; nullptr selects
  /// `DefaultClock()`. `options.num_windows` must be >= 1 and
  /// `options.window_micros` >= 1 (checked).
  WindowedCounter(const Clock* clock, const WindowOptions& options);

  WindowedCounter(const WindowedCounter&) = delete;
  WindowedCounter& operator=(const WindowedCounter&) = delete;

  /// Adds `n` to the current window (and to the lifetime total).
  void Add(uint64_t n = 1);

  /// Lifetime count since construction (never decays).
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  /// Sum over the live windows (current partial + completed retained).
  uint64_t TotalInWindows() const;

  /// Per-window counts, oldest retained window first, the current
  /// (partial) window last; always exactly `num_windows` entries, with
  /// zeros for windows that saw no events or predate the clock origin.
  std::vector<uint64_t> WindowSnapshot() const;

  /// `TotalInWindows()` divided by the full retained span in seconds
  /// (`num_windows * window_micros`). Deterministic for a given clock
  /// instant and set of recordings.
  double RatePerSecond() const;

  const WindowOptions& options() const { return options_; }

 private:
  struct Slot {
    /// Window epoch + 1 of the resident data; 0 = never used.
    std::atomic<uint64_t> tag{0};
    std::atomic<uint64_t> count{0};
    /// Zeroes the data (not the tag) when the slot is recycled.
    void Reset() { count.store(0, std::memory_order_relaxed); }
  };

  const Clock* clock_;
  const WindowOptions options_;
  std::vector<Slot> ring_;
  std::atomic<uint64_t> total_{0};
  /// Serializes slot recycling only; bumps never take it.
  std::mutex rotate_mu_;
};

/// A latency histogram over the same window ring, bucketed identically
/// to `kws::LatencyHistogram` (shared power-of-two edges via its static
/// helpers). Window reads merge the live windows' bucket arrays and
/// interpolate — "p99 over the last N windows"; `total()` is a plain
/// `LatencyHistogram` of every recording, so lifetime and recent
/// percentiles come from one instrument and are directly comparable.
///
/// Thread-safety contract matches `WindowedCounter`: relaxed-atomic
/// recording, mutex-serialized rotation, laggard recordings past a full
/// ring rotation are dropped from the windows (never from `total()`).
class WindowedHistogram {
 public:
  /// `clock` must outlive the instrument; nullptr selects
  /// `DefaultClock()`. Options constraints as `WindowedCounter`.
  WindowedHistogram(const Clock* clock, const WindowOptions& options);

  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  /// Records one observation into the current window (and into the
  /// lifetime distribution).
  void Record(double micros);

  /// The lifetime distribution since construction (never decays).
  const LatencyHistogram& total() const { return total_; }

  /// Lifetime observation count, `total().count()`.
  uint64_t count() const { return total_.count(); }

  /// Observations in the live windows.
  uint64_t CountInWindows() const;

  /// Mean over the live windows, microseconds; 0 when empty.
  double MeanMicros() const;

  /// The `p`-quantile (p in [0,1]) over the live windows' merged
  /// buckets, interpolated exactly like
  /// `LatencyHistogram::PercentileMicros`; 0 when empty.
  double PercentileMicros(double p) const;

  const WindowOptions& options() const { return options_; }

 private:
  struct Slot {
    /// Window epoch + 1 of the resident data; 0 = never used.
    std::atomic<uint64_t> tag{0};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_nanos{0};
    std::array<std::atomic<uint64_t>, LatencyHistogram::kNumBuckets>
        buckets{};
    /// Zeroes the data (not the tag) when the slot is recycled.
    void Reset() {
      count.store(0, std::memory_order_relaxed);
      sum_nanos.store(0, std::memory_order_relaxed);
      for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
    }
  };

  /// Sums the live windows into one bucket array (plus count and sum).
  void MergeWindows(std::array<uint64_t, LatencyHistogram::kNumBuckets>* out,
                    uint64_t* count, uint64_t* sum_nanos) const;

  const Clock* clock_;
  const WindowOptions options_;
  std::vector<Slot> ring_;
  LatencyHistogram total_;
  /// Serializes slot recycling only; recordings never take it.
  std::mutex rotate_mu_;
};

}  // namespace kws::obs

#endif  // KWDB_OBS_WINDOWED_H_
