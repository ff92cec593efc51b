#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace servebench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

size_t SpanRecorder::Begin(const std::string& name, uint64_t request,
                           int64_t parent) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = NowNs();
  s.end_ns = s.start_ns;
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) { spans_[index].end_ns = NowNs(); }

void SpanRecorder::Count(size_t index, const std::string& name, double value) {
  counts_.push_back({index, name, value});
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>>& c = children[i];
    std::sort(c.begin(), c.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : c) {
      const int64_t b = std::max(begin, cursor);
      const int64_t e = std::min(end, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> SpanRecorder::SelfMicrosPerRequest()
    const {
  const std::vector<int64_t> self = SelfTimes();
  std::map<std::pair<std::string, uint64_t>, int64_t> sums;
  for (size_t i = 0; i < spans_.size(); ++i) {
    sums[{spans_[i].name, spans_[i].request}] += self[i];
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [key, ns] : sums) {
    out[key.first].push_back(static_cast<double>(ns) / 1e3);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::DurationMicros()
    const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::CountsByName() const {
  std::map<std::string, std::vector<double>> out;
  for (const SpanCount& c : counts_) {
    out[spans_[c.span].name + "/" + c.name].push_back(c.value);
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes();
  std::vector<std::string> counts(spans_.size());
  for (const SpanCount& c : counts_) {
    std::string& line = counts[c.span];
    if (!line.empty()) line += ',';
    line += c.name + "=" + std::to_string(c.value);
  }
  std::fprintf(f, "request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\t"
                  "counts\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu\t%zu\t%lld\t%s\t%lld\t%lld\t%lld\t%s\n",
                 static_cast<unsigned long long>(s.request), i,
                 static_cast<long long>(s.parent), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]), counts[i].c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
