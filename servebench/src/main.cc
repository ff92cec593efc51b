// servebench: drives one workload through serve::ServingEngine as a closed
// loop, checks every answer, and prints the metrics as one JSON object on
// the last line of standard output.
//
//   servebench --workload <rel_cold|rel_hot_writes|rel_sharded|xml>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--spans-out <path>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same timed
// loop for the untraced serve readings, then a single-threaded traced
// replay, and prints the per-layer metrics. The exit code is 0 only when
// every answer checked out.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "stats.h"
#include "verify.h"
#include "workload.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  Workload workload = Workload::kRelCold;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "<rel_cold|rel_hot_writes|rel_sharded|xml> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &a.workload)) Usage("unknown workload " + value);
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("bad seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Median of `m[name]`, 0 when the name never occurred.
double MedianOf(const std::map<std::string, std::vector<double>>& m,
                const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : Median(it->second);
}

double SumOf(const std::map<std::string, std::vector<double>>& m,
             const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : Sum(it->second);
}

/// (facade - attributed stages) / facade over the requests that have
/// both a facade span and a decomposed-stages span.
double UnattributedRatio(const SpanRecorder& rec, const std::string& facade,
                         const std::string& stages) {
  const std::vector<int64_t> self = rec.SelfTimes();
  std::map<uint64_t, double> facade_ns;
  std::map<uint64_t, double> attributed_ns;
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.name == facade) facade_ns[s.request] += d;
    if (s.name == stages) {
      attributed_ns[s.request] += d - static_cast<double>(self[i]);
    }
  }
  double f = 0;
  double a = 0;
  for (const auto& [request, ns] : facade_ns) {
    const auto it = attributed_ns.find(request);
    if (it == attributed_ns.end()) continue;
    f += ns;
    a += it->second;
  }
  return Ratio(f - a, f);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const Args& args) {
  const Workload w = args.workload;
  const Inputs inputs(w, args.seed);

  // Set-up: the first deployment is measured; further set-ups, timed and
  // discarded after the timed phase (so the peak memory reading covers one
  // deployment only), make the reported set-up time a median: at least
  // three in all, and more while less than a second has been spent.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Deployment> d = BuildDeployment(inputs, Shape::kWorkers);
    Warmup(*d, inputs);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    return d;
  };
  std::unique_ptr<Deployment> dep = set_up();

  kws::serve::ServingEngine& server = *dep->server;
  const kws::serve::CacheStats cache0 = server.cache_stats();
  const kws::cn::TupleSetCache::Stats tuple0 =
      server.tuple_cache() != nullptr ? server.tuple_cache()->stats()
                                      : kws::cn::TupleSetCache::Stats{};
  LoopOptions lo;
  lo.begin = inputs.warmup_length();
  lo.seconds = args.seconds;
  lo.reads_per_write =
      w == Workload::kRelHotWrites ? Shape::kReadsPerWrite : 0;
  const LoopResult run = RunLoop(*dep, inputs, lo);
  const double peak_rss_mb = PeakRssMb();
  const kws::serve::CacheStats cache1 = server.cache_stats();
  const kws::cn::TupleSetCache::Stats tuple1 =
      server.tuple_cache() != nullptr ? server.tuple_cache()->stats()
                                      : kws::cn::TupleSetCache::Stats{};
  dep.reset();
  constexpr size_t kMinSetupReps = 3;
  constexpr size_t kMaxSetupReps = 31;
  constexpr double kMinSetupSeconds = 1.0;
  while (setup_s.size() < kMinSetupReps ||
         (Sum(setup_s) < kMinSetupSeconds && setup_s.size() < kMaxSetupReps)) {
    set_up();
  }

  const size_t threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  const Verification v = VerifyRun(inputs, run, threads);
  for (const std::string& m : v.messages) {
    std::fprintf(stderr, "servebench: MISMATCH %s\n", m.c_str());
  }

  std::vector<double> latency_us;
  std::vector<double> exec_us;
  std::vector<double> wait_us;
  for (const ReadSample& s : run.reads) {
    latency_us.push_back(s.latency_us);
    exec_us.push_back(s.exec_us);
    wait_us.push_back(s.latency_us - s.exec_us);
  }
  std::vector<double> write_us;
  std::vector<double> quiesce_us;
  for (const WriteSample& ws : run.writes) {
    write_us.push_back(ws.write_us);
    quiesce_us.push_back(ws.quiesce_us);
  }
  uint64_t attempted = run.reads.size() + run.writes.size();
  uint64_t failed = v.failed_reads + v.failed_writes + run.overlaps;

  // Pooled over the whole timed phase. The host alternates between fast
  // and slow phases of 5-15 s (the same request ran up to 1.6x slower in
  // a slow one), so a median over shorter windows would pick one phase
  // instead of averaging over all the phases the run saw.
  const size_t n = latency_us.size();
  const double qps = Ratio(static_cast<double>(n), run.elapsed_s);
  const double p50_ms = Percentile(latency_us, 0.5) / 1e3;
  const double p95_ms = Percentile(latency_us, 0.95) / 1e3;
  const double setup_median = Median(setup_s);

  // Human-readable summary (the JSON result is the last line).
  const char* name = WorkloadName(w);
  std::printf("workload %s seed %llu: %zu reads, %zu writes in %.3f s "
              "(closed loop, %zu clients, %zu workers)\n",
              name, static_cast<unsigned long long>(args.seed), n,
              run.writes.size(), run.elapsed_s, Shape::kClients,
              Shape::kWorkers);
  std::printf("  qps          %.2f 1/s\n", qps);
  std::printf("  p50_ms       %.3f ms  (n=%zu)\n", p50_ms, n);
  std::printf("  p95_ms       %.3f ms  (n=%zu, %zu beyond; highest percentile "
              "with >=10 beyond: p%g)\n",
              p95_ms, n, SamplesBeyond(n, 0.95),
              100 * HighestSupportedPercentile(n));
  if (!run.writes.empty()) {
    std::printf("  write_p50_ms %.3f ms  (n=%zu)\n",
                Median(write_us) / 1e3, write_us.size());
  }
  std::printf("  fail_ratio   %.6f     (%llu of %llu; %llu answers "
              "checked)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(v.answers_checked));
  std::printf("  setup_s      %.4f s   (median of %zu)\n", setup_median,
              setup_s.size());
  std::printf("  peak_rss_mb  %.2f MiB\n", peak_rss_mb);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"qps", qps, "1/s"},
               {"p50_ms", p50_ms, "ms"},
               {"p95_ms", p95_ms, "ms"},
               {"setup_s", setup_median, "s"},
               {"peak_rss_mb", peak_rss_mb, "MiB"}};
  } else {
    const double exec_p50 = Median(exec_us);
    ReplayResult replay = Replay(inputs, std::max(1.0, args.seconds / 2));
    attempted += replay.reads + replay.writes;
    failed += replay.failures;
    for (const std::string& m : replay.messages) {
      std::fprintf(stderr, "servebench: TRACE MISMATCH %s\n", m.c_str());
    }
    const SpanRecorder& rec = replay.spans;
    if (!args.spans_out.empty() && !rec.WriteTsv(args.spans_out)) {
      std::fprintf(stderr, "servebench: cannot write %s\n",
                   args.spans_out.c_str());
    }
    const auto self = rec.SelfMicrosPerRequest();
    const auto dur = rec.DurationMicros();
    const auto counts = rec.CountsByName();
    const double engine_unattributed =
        w == Workload::kXml
            ? UnattributedRatio(rec, span::kXmlFacade, span::kXmlStages)
            : UnattributedRatio(rec, span::kEngineFacade, span::kEngineStages);
    const std::string ex = std::string(span::kExecute) + "/";
    const std::string sh = std::string(span::kShardSearch) + "/";
    const std::string xs = std::string(span::kXmlStages) + "/";
    const uint64_t hits = cache1.hits - cache0.hits;
    const uint64_t misses = cache1.misses - cache0.misses;
    const uint64_t t_hits = tuple1.hits - tuple0.hits;
    const uint64_t t_misses = tuple1.misses - tuple0.misses;
    metrics = {
        // serve (the first seven and quiesce are untraced readings of the
        // timed closed loop)
        {"serve.exec_us.p50", exec_p50, "us"},
        {"serve.wait_us.p50", Median(wait_us), "us"},
        {"serve.cache.hit_ratio",
         Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
         "ratio"},
        {"serve.cache.evictions",
         static_cast<double>(cache1.evictions - cache0.evictions), "count"},
        {"serve.tuple_cache.hit_ratio",
         Ratio(static_cast<double>(t_hits),
               static_cast<double>(t_hits + t_misses)),
         "ratio"},
        {"serve.tuple_cache.invalidations",
         static_cast<double>(tuple1.invalidations - tuple0.invalidations),
         "count"},
        {"serve.admission.retries",
         static_cast<double>(run.admission_retries), "count"},
        {"serve.quiesce.us", Median(quiesce_us), "us"},
        {"serve.cache_key.us", MedianOf(self, span::kCacheKey), "us"},
        {"serve.notify_write.us", MedianOf(self, span::kNotifyWrite), "us"},
        // relational
        {"relational.apply_inserts.us", MedianOf(self, span::kApplyInserts),
         "us"},
        {"relational.touched_terms",
         MedianOf(counts, std::string(span::kApplyInserts) + "/touched_terms"),
         "count"},
        // core/engine
        {"engine.search.us", MedianOf(dur, span::kEngineFacade), "us"},
        {"engine.render.us", MedianOf(self, span::kRender), "us"},
        {"engine.unattributed_ratio", engine_unattributed, "ratio"},
        // core/clean
        {"clean.normalize.us", MedianOf(self, span::kClean), "us"},
        // core/cn
        {"cn.tuple_sets.us", MedianOf(self, span::kTupleSets), "us"},
        {"cn.tuple_sets.rows",
         MedianOf(counts, std::string(span::kTupleSets) + "/rows"), "count"},
        {"cn.enumerate.us", MedianOf(self, span::kEnumerate), "us"},
        {"cn.enumerate.cns",
         MedianOf(counts, std::string(span::kEnumerate) + "/cns"), "count"},
        {"cn.execute.us", MedianOf(self, span::kExecute), "us"},
        {"cn.execute.cns_evaluated", MedianOf(counts, ex + "cns_evaluated"),
         "count"},
        {"cn.execute.join_lookups", MedianOf(counts, ex + "join_lookups"),
         "count"},
        {"cn.execute.useful_ratio",
         Ratio(SumOf(counts, ex + "results"),
               SumOf(counts, ex + "results_materialized")),
         "ratio"},
        // core/refine
        {"refine.suggest.us", MedianOf(self, span::kSuggest), "us"},
        // shard
        {"shard.search.us", MedianOf(self, span::kShardSearch), "us"},
        {"shard.fanout_ratio",
         Ratio(SumOf(counts, sh + "shards_searched"),
               SumOf(counts, sh + "shards_total")),
         "ratio"},
        {"shard.useful_ratio",
         Ratio(SumOf(counts, sh + "results"),
               SumOf(counts, sh + "shard_results")),
         "ratio"},
        {"shard.cns_evaluated", MedianOf(counts, sh + "cns_evaluated"),
         "count"},
        // core/lca, core/analyze
        {"xml.search.us", MedianOf(dur, span::kXmlFacade), "us"},
        {"lca.match_lists.us", MedianOf(self, span::kMatchLists), "us"},
        {"lca.matches",
         MedianOf(counts, std::string(span::kMatchLists) + "/matches"),
         "count"},
        {"lca.slca.us", MedianOf(self, span::kSlca), "us"},
        {"lca.anchors", MedianOf(counts, std::string(span::kSlca) + "/anchors"),
         "count"},
        {"lca.rank.us", MedianOf(self, span::kRank), "us"},
        {"lca.xseek.us", MedianOf(self, span::kXSeek), "us"},
        {"analyze.snippet.us", MedianOf(self, span::kSnippet), "us"},
        {"analyze.cluster.us", MedianOf(self, span::kCluster), "us"},
        {"lca.useful_ratio",
         Ratio(SumOf(counts, xs + "results"), SumOf(counts, xs + "anchors")),
         "ratio"},
        // tracing
        {"trace.overhead_ratio",
         Ratio(MedianOf(dur, span::kRequest), exec_p50), "ratio"},
        {"trace.reads", static_cast<double>(replay.reads), "count"},
    };
    std::printf("  traced replay: %llu reads, %llu writes, %zu spans\n",
                static_cast<unsigned long long>(replay.reads),
                static_cast<unsigned long long>(replay.writes),
                rec.spans().size());
    for (const Metric& m : metrics) {
      std::printf("  %-32s %14.3f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  return servebench::Run(servebench::ParseArgs(argc, argv));
}
