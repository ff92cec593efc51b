// E21: intra-query parallel CN execution — worker-pool scaling with
// modeled per-CN RDBMS round-trips and the honest pure-CPU numbers.
//
// Series:
//   E21.1 modeled-IO scaling: DISCOVER-style deployments issue one SQL
//         statement per CN, so each CN evaluation pays a backend
//         round-trip (SearchOptions::simulated_cn_io_micros). Workers
//         overlap those waits; latency and speedup
//         at 1/2/4/8 threads for kNaive and kSparse.
//   E21.2 pure-CPU scaling (simulated_cn_io_micros = 0) on the same
//         workload — recorded honestly: on a single-core host there is
//         nothing to overlap and the pool is pure overhead.
//
// Every multi-thread run is checked bit-for-bit against the one-thread
// run of the same evaluation loop (score, cn_index, tuples) — the bench
// aborts on any mismatch, so the scaling numbers can never come from a
// wrong answer. Correctness itself is pinned by the brute-force oracle
// in tests/cn_parallel_test.cc.
//
// `--smoke` shrinks every series to a <5 s run (the ci.sh gate);
// absolute numbers are then meaningless but every code path still
// executes.
//
// Expected shape: with round-trips dominating, speedup approaches the
// thread count until the per-query CN count stops feeding all workers
// (kSparse prunes its tail, so it tops out below kNaive); the >= 2.5x
// acceptance bar at 8 workers refers to the modeled-IO kNaive row.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/cn/search.h"
#include "relational/dblp.h"

namespace kws::bench {
namespace {

bool g_smoke = false;

using cn::CnKeywordSearch;
using cn::SearchOptions;
using cn::SearchResult;
using cn::SearchStats;
using cn::Strategy;

/// Dies loudly when a parallel run diverges from the serial oracle.
void CheckIdentical(const std::vector<SearchResult>& serial,
                    const std::vector<SearchResult>& parallel,
                    const char* context) {
  bool same = serial.size() == parallel.size();
  for (size_t i = 0; same && i < serial.size(); ++i) {
    same = serial[i].score == parallel[i].score &&
           serial[i].cn_index == parallel[i].cn_index &&
           serial[i].tuples == parallel[i].tuples;
  }
  if (!same) {
    std::fprintf(stderr, "E21 FATAL: parallel results diverge (%s)\n",
                 context);
    std::abort();
  }
}

struct Workload {
  relational::DblpDatabase dblp;
  std::vector<std::string> queries;
};

Workload MakeWorkload() {
  // CN count is schema-driven while per-CN join cost is row-driven, so a
  // compact corpus keeps the round-trip count high and the CPU between
  // round-trips low — the regime the modeled-IO series is about.
  relational::DblpOptions opts;
  opts.num_authors = 24;
  opts.num_papers = 48;
  opts.num_conferences = 6;
  Workload w{relational::MakeDblpDatabase(opts), {}};
  // Three-keyword queries: the mask combinations multiply the CN count
  // (more round-trips) without deepening the joins.
  w.queries = {"keyword search database", "query data index",
               "data mining system",      "xml query processing",
               "search index database",   "query optimization system"};
  if (g_smoke) w.queries.resize(3);
  return w;
}

struct SeriesResult {
  double mean_ms = 0;
  double cns_per_query = 0;  // CNs actually evaluated (paid a round-trip)
};

/// Mean per-query latency (ms) over `reps` passes, with the serial run's
/// results as the oracle for every parallel thread count.
SeriesResult RunSeries(const CnKeywordSearch& search, const Workload& w,
                       Strategy strategy, size_t threads, uint64_t io_micros,
                       size_t reps,
                       std::vector<std::vector<SearchResult>>* oracle) {
  SeriesResult out;
  double total_ms = 0;
  uint64_t total_cns = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      SearchOptions so;
      so.k = 10;
      so.max_cn_size = 4;
      so.strategy = strategy;
      so.num_threads = threads;
      so.simulated_cn_io_micros = io_micros;
      SearchStats stats;
      Stopwatch watch;
      auto results = search.Search(w.queries[q], so, nullptr, &stats);
      total_ms += watch.ElapsedMillis();
      total_cns += stats.cns_evaluated;
      if (rep > 0) continue;
      if (threads == 1) {
        oracle->push_back(std::move(results));
      } else {
        CheckIdentical((*oracle)[q], results, w.queries[q].c_str());
      }
    }
  }
  const double runs = static_cast<double>(reps * w.queries.size());
  out.mean_ms = total_ms / runs;
  out.cns_per_query = static_cast<double>(total_cns) / runs;
  return out;
}

void ScalingSeries(const char* id, const char* title,
                   const CnKeywordSearch& search, const Workload& w,
                   uint64_t io_micros) {
  Banner(id, title);
  const size_t reps = g_smoke ? 1 : 3;
  TablePrinter table({"strategy", "threads", "mean_ms", "speedup",
                      "cns/query", "io_us/cn"});
  for (Strategy strategy : {Strategy::kNaive, Strategy::kSparse}) {
    std::vector<std::vector<SearchResult>> oracle;
    double serial_ms = 0;
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      const SeriesResult r = RunSeries(search, w, strategy, threads,
                                       io_micros, reps, &oracle);
      if (threads == 1) serial_ms = r.mean_ms;
      table.Row({cn::StrategyToString(strategy), Fmt(static_cast<int>(threads)),
                 Fmt(r.mean_ms), Fmt(serial_ms / r.mean_ms),
                 Fmt(r.cns_per_query), Fmt(io_micros)});
    }
  }
}

void RunExperiment() {
  std::printf("E21: intra-query parallel CN execution%s\n",
              g_smoke ? " (smoke)" : "");
  Workload w = MakeWorkload();
  CnKeywordSearch search(*w.dblp.db);
  ScalingSeries("E21.1", "modeled per-CN round-trips, 1..8 workers", search,
                w, g_smoke ? 1000 : 2000);
  ScalingSeries("E21.2", "pure CPU (no modeled IO), 1..8 workers", search, w,
                0);
}

}  // namespace
}  // namespace kws::bench

int main(int argc, char** argv) {
  kws::bench::ParseJsonFlag(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) kws::bench::g_smoke = true;
  }
  kws::bench::RunExperiment();
  return kws::bench::FlushJson() ? 0 : 1;
}
