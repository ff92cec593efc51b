#ifndef KWDB_OBS_TELEMETRY_H_
#define KWDB_OBS_TELEMETRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/clock.h"
#include "obs/windowed.h"

namespace kws::obs {

/// The operational-telemetry registry: windowed instruments over one
/// injected clock, rendered into one byte-stable JSON document. Each
/// instrument answers both the "right now" questions (QPS, recent hit
/// rate, recent p99) from its window ring and the lifetime ones from its
/// never-decaying total, so one event bumps one instrument.
///
/// Instruments are created lazily, never removed, and returned as stable
/// pointers, so hot paths resolve each instrument once and then touch
/// only atomics. Thread-safe.
class TelemetryRegistry {
 public:
  /// `clock` must outlive the registry; nullptr selects `DefaultClock()`.
  /// Every windowed instrument created here shares `windows`.
  explicit TelemetryRegistry(const Clock* clock = nullptr,
                             const WindowOptions& windows = {});

  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  /// The windowed counter named `name`, created on first use. The
  /// pointer stays valid for the registry's lifetime.
  WindowedCounter* GetWindowedCounter(const std::string& name);

  /// The windowed histogram named `name`, created on first use.
  WindowedHistogram* GetWindowedHistogram(const std::string& name);

  /// The injected clock (shared by every windowed instrument).
  const Clock& clock() const { return *clock_; }

  /// The window configuration shared by every windowed instrument.
  const WindowOptions& windows() const { return windows_; }

  /// One JSON document holding every instrument, with a fixed key
  /// order: `{"window_micros":W,"num_windows":N,"counters":{name:{total,
  /// in_windows,rate_per_sec,windows:[...]},...},"histograms":{name:{
  /// count,mean_micros,p50_micros,p95_micros,p99_micros,recent:{count,
  /// mean_micros,p50_micros,p95_micros,p99_micros}},...}}` — lifetime
  /// readings first, the live windows' beside them. Names sort
  /// lexicographically, floats are `%.3f` — byte-stable for a given
  /// clock instant and set of recordings (exactly reproducible under a
  /// `ManualClock`).
  std::string RenderJson() const;

 private:
  const Clock* clock_;
  const WindowOptions windows_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<WindowedCounter>> counters_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> histograms_;
};

}  // namespace kws::obs

#endif  // KWDB_OBS_TELEMETRY_H_
