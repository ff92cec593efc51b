// E19: the query-serving layer (kws::serve).
//
// Two series over the DBLP corpus, each a Zipf replay of a query log
// through the synchronous ServingEngine::Query, one request at a time
// (ReplayZipf in bench_util.h), so hit and outcome counts are exact for
// the seed and latencies are the engine's own cost:
//   E19.2 cache hit rate, served QPS and p50 vs result-cache capacity;
//   E19.3 outcome mix vs per-query budget (deadline enforcement).
// E19.1, throughput vs worker count under a modelled backend sleep, is
// retired (see EXPERIMENTS.md); concurrent load is servebench's job.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine/engine.h"
#include "relational/dblp.h"
#include "relational/query_log.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace kws::bench {
namespace {

struct Corpus {
  relational::DblpDatabase dblp;
  std::vector<std::string> pool;
};

Corpus MakeCorpus() {
  relational::DblpOptions opts;
  opts.num_authors = 40;
  opts.num_papers = 80;
  opts.num_conferences = 6;
  Corpus c{MakeDblpDatabase(opts), {}};
  relational::QueryLogOptions lopts;
  lopts.num_queries = 300;
  std::vector<std::string> pool = serve::QueryPool(
      relational::MakeQueryLog(*c.dblp.db, c.dblp.paper, lopts));
  // Keep the short (<= 2 keyword) queries: the interactive regime the
  // serving layer targets.
  for (std::string& q : pool) {
    if (std::count(q.begin(), q.end(), ' ') <= 1) {
      c.pool.push_back(std::move(q));
    }
  }
  return c;
}

constexpr size_t kTopK = 5;

void HitRateVsCacheSize(const engine::KeywordSearchEngine& eng,
                        const std::vector<std::string>& pool) {
  Banner("E19.2", "cache hit rate vs capacity (warm Zipf replay)");
  TablePrinter table({"capacity", "hit_rate", "qps", "p50_ms", "evictions"});
  for (size_t capacity : {0, 8, 32, 128, 512}) {
    serve::ServeOptions so;
    so.num_workers = 0;  // Query() executes inline; no pool needed
    so.cache_capacity = capacity;
    serve::ServingEngine server(&eng, nullptr, so);
    serve::QueryRequest base;
    base.k = kTopK;
    const ReplayReport r = ReplayZipf(server, pool, base, 600);
    table.Row({Fmt(static_cast<uint64_t>(capacity)), Fmt(r.HitRate()),
               Fmt(r.qps), Fmt(r.p50_ms), Fmt(server.cache_stats().evictions)});
  }
}

void OutcomesVsBudget(const engine::KeywordSearchEngine& eng,
                      const std::vector<std::string>& pool) {
  Banner("E19.3", "outcome mix vs per-query budget");
  TablePrinter table({"budget_us", "ok", "deadline", "hit_rate"});
  for (uint64_t budget : {uint64_t{1}, uint64_t{200}, uint64_t{5000},
                          uint64_t{0}}) {
    serve::ServeOptions so;
    so.num_workers = 0;
    serve::ServingEngine server(&eng, nullptr, so);
    serve::QueryRequest base;
    base.k = kTopK;
    base.budget_micros = budget;
    const ReplayReport r = ReplayZipf(server, pool, base, 200);
    table.Row({budget == 0 ? "unlimited" : Fmt(budget), Fmt(r.ok),
               Fmt(r.deadline_exceeded), Fmt(r.HitRate())});
  }
}

void RunExperiment() {
  std::printf("E19: query serving (result cache + deadlines)\n");
  Corpus corpus = MakeCorpus();
  std::printf("query pool: %zu distinct queries\n", corpus.pool.size());
  engine::KeywordSearchEngine eng(*corpus.dblp.db);
  HitRateVsCacheSize(eng, corpus.pool);
  OutcomesVsBudget(eng, corpus.pool);
}

// Timer: the synchronous serving path, cache-warm vs cache-cold.
void BM_ServeQueryWarm(benchmark::State& state) {
  static Corpus corpus = MakeCorpus();
  static engine::KeywordSearchEngine eng(*corpus.dblp.db);
  serve::ServeOptions so;
  so.num_workers = 0;  // Query() executes inline; no pool needed
  serve::ServingEngine server(&eng, nullptr, so);
  serve::QueryRequest req;
  req.query = corpus.pool.front();
  req.bypass_cache = state.range(0) == 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Query(req));
  }
}
BENCHMARK(BM_ServeQueryWarm)
    ->Arg(0)   // bypass (always executes)
    ->Arg(1);  // cached (first iteration fills, rest hit)

}  // namespace
}  // namespace kws::bench

KWDB_BENCH_MAIN(kws::bench::RunExperiment)
