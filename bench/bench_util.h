#ifndef KWDB_BENCH_BENCH_UTIL_H_
#define KWDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "serve/server.h"

namespace kws::bench {

/// Machine-readable export of the experiment tables. Enabled by a
/// `--json=<path>` flag (parsed by ParseJsonFlag / KWDB_BENCH_MAIN);
/// every `Banner` starts a new experiment object and every
/// `TablePrinter` row lands in it, so the JSON mirrors exactly what the
/// human-readable tables print:
///   {"experiments":[{"id":"E1","title":...,"headers":[...],
///                    "rows":[[...],...]},...]}
/// Cells that parse fully as finite numbers are emitted unquoted.
class JsonExport {
 public:
  /// The process-wide collector (benches are single-threaded mains).
  static JsonExport& Instance() {
    static JsonExport instance;
    return instance;
  }

  /// Turns collection on and sets the output path.
  void Enable(std::string path) { path_ = std::move(path); }

  /// True once `--json=` was seen.
  bool enabled() const { return !path_.empty(); }

  /// Starts a new experiment object (called by Banner).
  void BeginExperiment(const std::string& id, const std::string& title) {
    if (!enabled()) return;
    experiments_.push_back(Experiment{id, title, {}, {}});
  }

  /// Attaches column headers to the current experiment.
  void SetHeaders(const std::vector<std::string>& headers) {
    if (!enabled() || experiments_.empty()) return;
    experiments_.back().headers = headers;
  }

  /// Appends one table row to the current experiment.
  void AddRow(const std::vector<std::string>& cells) {
    if (!enabled() || experiments_.empty()) return;
    experiments_.back().rows.push_back(cells);
  }

  /// Writes the collected experiments to the `--json=` path. Returns
  /// false on IO error; a no-op success when the flag was not given.
  bool Flush() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open --json path %s\n",
                   path_.c_str());
      return false;
    }
    std::fputs("{\"experiments\":[", f);
    for (size_t e = 0; e < experiments_.size(); ++e) {
      const Experiment& exp = experiments_[e];
      if (e > 0) std::fputc(',', f);
      std::fputs("{\"id\":", f);
      WriteString(f, exp.id);
      std::fputs(",\"title\":", f);
      WriteString(f, exp.title);
      std::fputs(",\"headers\":[", f);
      for (size_t i = 0; i < exp.headers.size(); ++i) {
        if (i > 0) std::fputc(',', f);
        WriteString(f, exp.headers[i]);
      }
      std::fputs("],\"rows\":[", f);
      for (size_t r = 0; r < exp.rows.size(); ++r) {
        if (r > 0) std::fputc(',', f);
        std::fputc('[', f);
        for (size_t i = 0; i < exp.rows[r].size(); ++i) {
          if (i > 0) std::fputc(',', f);
          WriteCell(f, exp.rows[r][i]);
        }
        std::fputc(']', f);
      }
      std::fputs("]}", f);
    }
    std::fputs("]}\n", f);
    const bool ok = std::fclose(f) == 0;
    if (ok) std::printf("wrote %s\n", path_.c_str());
    return ok;
  }

 private:
  struct Experiment {
    std::string id;
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  static void WriteString(std::FILE* f, const std::string& s) {
    std::fputc('"', f);
    for (char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', f);
        std::fputc(c, f);
      } else if (c == '\n') {
        std::fputs("\\n", f);
      } else {
        std::fputc(c, f);
      }
    }
    std::fputc('"', f);
  }

  /// Numbers stay numbers in the JSON; everything else is a string.
  static void WriteCell(std::FILE* f, const std::string& s) {
    if (!s.empty()) {
      char* end = nullptr;
      std::strtod(s.c_str(), &end);
      if (end != nullptr && *end == '\0') {
        std::fputs(s.c_str(), f);
        return;
      }
    }
    WriteString(f, s);
  }

  std::string path_;
  std::vector<Experiment> experiments_;
};

/// Strips `--json=<path>` from argv (so benchmark::Initialize never sees
/// it) and enables JsonExport when present.
inline void ParseJsonFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      JsonExport::Instance().Enable(argv[i] + 7);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Flushes the JSON export (no-op without `--json=`); returns false on
/// IO error so mains can surface it in the exit code.
inline bool FlushJson() { return JsonExport::Instance().Flush(); }

/// Fixed-width table printer for the experiment series each bench
/// regenerates (the "rows the paper reports"); google-benchmark handles
/// the timing side. Rows are mirrored into JsonExport when enabled.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const std::string& h : headers_) {
      std::printf("%-18s", h.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) std::printf("%-18s", "---");
    std::printf("\n");
    JsonExport::Instance().SetHeaders(headers_);
  }

  void Row(const std::vector<std::string>& cells) const {
    for (const std::string& c : cells) std::printf("%-18s", c.c_str());
    std::printf("\n");
    JsonExport::Instance().AddRow(cells);
  }

 private:
  std::vector<std::string> headers_;
};

inline std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

inline std::string Fmt(uint64_t v) { return std::to_string(v); }

inline std::string Fmt(int v) { return std::to_string(v); }

/// Prints the experiment banner and opens its JSON experiment object.
inline void Banner(const char* id, const char* title) {
  std::printf("\n=== %s: %s ===\n", id, title);
  JsonExport::Instance().BeginExperiment(id, title);
}

/// Outcome counts and served latency of one `ReplayZipf` run.
struct ReplayReport {
  size_t requests = 0;
  size_t ok = 0;
  size_t deadline_exceeded = 0;
  size_t cache_hits = 0;
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;

  double HitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(cache_hits) /
                               static_cast<double>(requests);
  }
};

/// Replays `requests` Zipf(0.9) draws over `pool` (rank 0 most popular,
/// seed 42) through the synchronous `ServingEngine::Query`, one request at
/// a time on the calling thread. `base` supplies every request field but
/// the query. The draw sequence is fixed and no two misses overlap, so
/// an unbudgeted replay's hit count is exact; qps, the latency quantiles
/// and any outcome a budget decides are wall-clock readings.
inline ReplayReport ReplayZipf(serve::ServingEngine& server,
                               const std::vector<std::string>& pool,
                               const serve::QueryRequest& base,
                               size_t requests) {
  ReplayReport report;
  if (pool.empty()) return report;
  const ZipfSampler zipf(pool.size(), 0.9);
  Rng rng(42);
  LatencyHistogram latencies;
  serve::QueryRequest request = base;
  Stopwatch wall;
  for (size_t i = 0; i < requests; ++i) {
    request.query = pool[zipf.Sample(rng)];
    const serve::QueryOutcome outcome = server.Query(request);
    ++report.requests;
    if (outcome.cache_hit) ++report.cache_hits;
    if (outcome.status.ok()) {
      ++report.ok;
    } else if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      ++report.deadline_exceeded;
    }
    latencies.Record(outcome.latency_micros);
  }
  const double seconds = wall.ElapsedMillis() / 1000.0;
  report.qps = seconds == 0 ? 0.0
                            : static_cast<double>(report.requests) / seconds;
  report.p50_ms = latencies.PercentileMicros(0.50) / 1000.0;
  report.p95_ms = latencies.PercentileMicros(0.95) / 1000.0;
  return report;
}

}  // namespace kws::bench

/// Shared main: parse `--json=`, print the custom experiment tables
/// (defined by each bench as RunExperiment), run any registered
/// google-benchmark timers, then flush the JSON export.
#define KWDB_BENCH_MAIN(RunExperiment)                        \
  int main(int argc, char** argv) {                           \
    kws::bench::ParseJsonFlag(&argc, argv);                   \
    RunExperiment();                                          \
    ::benchmark::Initialize(&argc, argv);                     \
    ::benchmark::RunSpecifiedBenchmarks();                    \
    ::benchmark::Shutdown();                                  \
    return kws::bench::FlushJson() ? 0 : 1;                   \
  }

#endif  // KWDB_BENCH_BENCH_UTIL_H_
