#include "obs/telemetry.h"

#include <cstdio>

namespace kws::obs {

TelemetryRegistry::TelemetryRegistry(const Clock* clock,
                                     const WindowOptions& windows)
    : clock_(clock != nullptr ? clock : DefaultClock()), windows_(windows) {}

WindowedCounter* TelemetryRegistry::GetWindowedCounter(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<WindowedCounter>& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<WindowedCounter>(clock_, windows_);
  }
  return slot.get();
}

WindowedHistogram* TelemetryRegistry::GetWindowedHistogram(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<WindowedHistogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<WindowedHistogram>(clock_, windows_);
  }
  return slot.get();
}

std::string TelemetryRegistry::RenderJson() const {
  std::string out = "{";
  char buf[96];
  const auto append_f = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", key, v);
    out += buf;
  };
  const auto append_u = [&](const char* key, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  std::lock_guard<std::mutex> lock(mu_);
  append_u("window_micros", windows_.window_micros);
  out += ",";
  append_u("num_windows", windows_.num_windows);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{";
    append_u("total", counter->total());
    out += ",";
    append_u("in_windows", counter->TotalInWindows());
    out += ",";
    append_f("rate_per_sec", counter->RatePerSecond());
    out += ",\"windows\":[";
    const std::vector<uint64_t> snap = counter->WindowSnapshot();
    for (size_t i = 0; i < snap.size(); ++i) {
      if (i > 0) out += ",";
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(snap[i]));
      out += buf;
    }
    out += "]}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{";
    // Lifetime and recent readings share one layout.
    const auto append_readings = [&](const auto& h, uint64_t count) {
      append_u("count", count);
      out += ",";
      append_f("mean_micros", h.MeanMicros());
      out += ",";
      append_f("p50_micros", h.PercentileMicros(0.50));
      out += ",";
      append_f("p95_micros", h.PercentileMicros(0.95));
      out += ",";
      append_f("p99_micros", h.PercentileMicros(0.99));
    };
    append_readings(hist->total(), hist->count());
    out += ",\"recent\":{";
    append_readings(*hist, hist->CountInWindows());
    out += "}}";
  }
  out += "}}";
  return out;
}

}  // namespace kws::obs
