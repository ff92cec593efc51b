// Serving-layer walkthrough: a worker pool answering concurrent keyword
// queries over the DBLP corpus, with the result cache, per-query budgets,
// and the operational-telemetry surface (one telemetry document + the
// Statusz health document).

#include <cstdio>
#include <future>
#include <vector>

#include "relational/dblp.h"
#include "serve/server.h"

int main() {
  using namespace kws;

  relational::DblpOptions opts;
  opts.num_authors = 60;
  opts.num_papers = 120;
  opts.num_conferences = 8;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  engine::KeywordSearchEngine eng(*dblp.db);

  serve::ServeOptions so;
  so.num_workers = 4;
  so.queue_capacity = 16;
  so.cache_capacity = 64;
  serve::ServingEngine server(&eng, nullptr, so);

  // --- Concurrent submissions. -----------------------------------------
  const std::vector<std::string> queries = {
      "keyword search", "query processing", "database system"};
  std::printf("submitting %zu queries to %zu workers\n\n", queries.size(),
              so.num_workers);
  std::vector<std::future<serve::QueryOutcome>> futures(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serve::QueryRequest req;
    req.query = queries[i];
    Status admitted = server.Submit(req, &futures[i]);
    if (!admitted.ok()) {
      std::printf("rejected: %s\n", admitted.ToString().c_str());
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::QueryOutcome out = futures[i].get();
    std::printf("[%zu] \"%s\" -> %s, %zu results%s (%.1f us)\n", i,
                queries[i].c_str(), out.status.ToString().c_str(),
                out.relational ? out.relational->results.size() : 0,
                out.cache_hit ? " [cache hit]" : "", out.latency_micros);
    if (out.relational != nullptr && !out.relational->results.empty()) {
      std::printf("     top: %s\n",
                  out.relational->results.front().description.c_str());
    }
  }

  // --- A repeat of a finished query is answered from the cache. --------
  serve::QueryRequest repeat;
  repeat.query = "Keyword  SEARCH";  // normalizes to the cached key
  serve::QueryOutcome cached = server.Query(repeat);
  std::printf("\nrepeat \"%s\" -> %s%s (%.1f us)\n", repeat.query.c_str(),
              cached.status.ToString().c_str(),
              cached.cache_hit ? " [cache hit]" : "", cached.latency_micros);

  // --- A starved budget surfaces as kDeadlineExceeded, not a crash. ----
  serve::QueryRequest starved;
  starved.query = "query optimization";
  starved.budget_micros = 1;
  serve::QueryOutcome out = server.Query(starved);
  std::printf("\n1 us budget -> %s\n", out.status.ToString().c_str());

  // --- What the server counted. ----------------------------------------
  // One instrument per serve event: each carries its lifetime total and
  // its recent windows ("what is happening *now*", decaying to zero when
  // traffic stops), rendered together as one JSON document.
  std::printf("\ntelemetry:\n%s\n", server.telemetry().RenderJson().c_str());

  // Statusz is the single-call health snapshot an operator (or a
  // dashboard scraper) reads: queue depth, in-flight count, rejection and
  // deadline rates with their recent windowed counterparts, per-shard
  // result-cache occupancy, epoch lag, and the slow-query-ring digest.
  std::printf("\nstatusz:\n%s\n", server.Statusz().c_str());
  return 0;
}
