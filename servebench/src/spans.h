#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

/// One timed call into a layer, recorded by the benchmark around a public
/// function of that layer.
struct Span {
  std::string name;
  uint64_t request = 0;
  /// Index of the enclosing span, or -1 for a root.
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// A count recorded at a span's boundary (e.g. the CNs an enumeration
/// produced).
struct SpanCount {
  size_t span = 0;
  std::string name;
  double value = 0;
};

/// Keeps every span and count of a traced run in memory; `WriteTsv` writes
/// them out once the run has ended. Single-threaded.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span (start = now) and returns its index.
  size_t Begin(const std::string& name, uint64_t request,
               int64_t parent = -1);
  /// Closes span `index` (end = now).
  void End(size_t index);
  /// Attaches a count to span `index`.
  void Count(size_t index, const std::string& name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<SpanCount>& counts() const { return counts_; }

  /// Self time of every span in nanoseconds: its duration minus the part
  /// of its interval its children cover.
  std::vector<int64_t> SelfTimes() const;

  /// Per span name, the self time summed within each request (requests in
  /// which the name does not occur are absent), in microseconds.
  std::map<std::string, std::vector<double>> SelfMicrosPerRequest() const;

  /// Per span name, the duration of every span, in microseconds.
  std::map<std::string, std::vector<double>> DurationMicros() const;

  /// Per "span name/count name", the value of every recorded count.
  std::map<std::string, std::vector<double>> CountsByName() const;

  /// Writes one line per span (request, index, parent, name, start, end,
  /// self time, counts) as tab-separated values. False on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<SpanCount> counts_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             uint64_t request, int64_t parent = -1)
      : recorder_(recorder), index_(recorder.Begin(name, request, parent)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return static_cast<int64_t>(index_); }
  void Count(const std::string& name, double value) {
    recorder_.Count(index_, name, value);
  }

 private:
  SpanRecorder& recorder_;
  size_t index_;
};

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
