// E23: sharded scatter-gather serving — shard-count scaling with modeled
// per-CN round-trips, and selection-based shard pruning under Zipf skew.
//
// Series:
//   E23.1 scatter-gather scaling: shard counts 1/2/4/8 with pruning ON,
//         one scatter worker per shard, each shard paying modeled per-CN
//         RDBMS round-trips (ShardedSearchOptions::simulated_cn_io_micros,
//         forwarded to E21's per-CN knob). Per shard count, latency and speedup
//         against the *unsharded* engine over the same combined corpus
//         with the same modeled IO and no tuple caching on either side —
//         the honest baseline, since each shard count merges a different
//         generated corpus. The win mechanism is pruning + overlap: the
//         selector drops shards a keyword never reaches, and the
//         surviving shards' round-trips overlap in the scatter — which
//         holds even on a single-core host, where pure-CPU scatter would
//         be flat.
//   E23.2 pruning under Zipf skew: an 8-shard corpus per corpus skew
//         theta, queried with two-term queries whose terms are drawn by
//         the matching Zipf sampler over the head of the title
//         vocabulary. Reports mean fanout with pruning on, mean shards
//         that actually contribute results, and prune recall — the
//         fraction of non-contributing shards the selector caught.
//
// Every sharded run is checked bit-for-bit against the unsharded serial
// answer over the combined database (score, cn_index, tuples) — the
// bench aborts on any mismatch, so no number can come from a wrong merge.
//
// `--smoke` shrinks every series to a <5 s run (the ci.sh gate);
// absolute numbers are then meaningless but every code path still
// executes.
//
// Expected shape: E23.1 speedup grows with the shard count as pruning
// cuts the fanout (rare terms reach few shards) and the survivors
// overlap; in E23.2 higher skew makes tail terms rarer, so more shards
// miss a keyword and both prune recall and the fanout gap rise with
// theta.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/cn/search.h"
#include "relational/dblp.h"
#include "shard/sharded_corpus.h"
#include "shard/sharded_engine.h"

namespace kws::bench {
namespace {

bool g_smoke = false;

using cn::SearchResult;
using shard::MakeShardedDblp;
using shard::ShardedCorpus;
using shard::ShardedEngine;
using shard::ShardedEngineOptions;
using shard::ShardedResponse;
using shard::ShardedSearchOptions;

constexpr size_t kMaxCnSize = 4;
constexpr size_t kTopK = 10;

/// Dies loudly when a sharded run diverges from the unsharded oracle.
void CheckIdentical(const std::vector<SearchResult>& want,
                    const std::vector<SearchResult>& got,
                    const char* context) {
  bool same = want.size() == got.size();
  for (size_t i = 0; same && i < want.size(); ++i) {
    same = want[i].score == got[i].score &&
           want[i].cn_index == got[i].cn_index &&
           want[i].tuples == got[i].tuples;
  }
  if (!same) {
    std::fprintf(stderr, "E23 FATAL: sharded results diverge (%s)\n",
                 context);
    std::abort();
  }
}

relational::DblpOptions CorpusOptions(double zipf_theta) {
  relational::DblpOptions opts;
  opts.num_conferences = 8;
  opts.num_authors = g_smoke ? 24 : 64;
  opts.num_papers = g_smoke ? 48 : 128;
  // A compact vocabulary keeps sampled query terms mostly *present* in
  // the corpus; absent terms make every query empty and pruning trivial.
  opts.vocab_size = 150;
  opts.zipf_theta = zipf_theta;
  return opts;
}

/// `terms`-term queries whose terms follow the corpus's own Zipf rank
/// distribution over the vocabulary head: head terms are everywhere,
/// tail terms live in few shards — the workload shard pruning is for.
std::vector<std::string> SkewQueries(const std::vector<std::string>& vocab,
                                     double theta, size_t count,
                                     size_t terms) {
  Rng rng(SplitSeed(97, static_cast<uint64_t>(theta * 1000)));
  const size_t head = vocab.size() < 100 ? vocab.size() : 100;
  const ZipfSampler zipf(head, theta);
  std::vector<std::string> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string q;
    for (size_t t = 0; t < terms; ++t) {
      const std::string term = vocab[zipf.Sample(rng)];
      if (q.find(term) != std::string::npos) continue;  // skip duplicates
      if (!q.empty()) q += " ";
      q += term;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void ScalingSeries(const std::vector<std::string>& vocab) {
  Banner("E23.1",
         "scatter-gather scaling, pruning on, modeled per-CN round-trips");
  const uint64_t io_micros = g_smoke ? 500 : 2000;
  const size_t reps = g_smoke ? 1 : 5;
  // Flat skew (theta 0.6) keeps query terms off the ubiquitous head:
  // terms that reach only a few shards are the regime shard pruning is
  // built for (head-heavy workloads keep every shard busy and the
  // scatter degenerates to a broadcast — E23.2 quantifies that slide).
  // Three-term queries make the CN lists deep enough that per-query
  // round-trips, not fixed costs, dominate.
  const double theta = 0.6;
  const std::vector<std::string> queries =
      SkewQueries(vocab, theta, g_smoke ? 4 : 10, 3);
  // rt_serial / rt_crit / rt_total: mean modeled round-trips paid by the
  // unsharded engine, by the sharded critical path (the busiest shard —
  // shard round-trips overlap, so this bounds latency), and by the whole
  // cluster (the throughput cost; pruning + the shared threshold keep it
  // near rt_serial instead of fanout x rt_serial) — the noise-free view
  // of the same speedup.
  TablePrinter table({"shards", "unsharded_ms", "sharded_ms", "speedup",
                      "fanout", "rt_serial", "rt_crit", "rt_total"});
  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    const ShardedCorpus corpus = MakeShardedDblp(CorpusOptions(theta), shards);
    ShardedEngineOptions eo;
    eo.max_cn_size = kMaxCnSize;
    eo.tuple_cache_capacity = 0;  // both sides build frontiers fresh
    const ShardedEngine engine(corpus, eo);
    const cn::CnKeywordSearch oracle(*corpus.combined);
    double unsharded_ms = 0, sharded_ms = 0, fanout = 0;
    double rt_serial = 0, rt_crit = 0, rt_total = 0;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const std::string& query : queries) {
        cn::SearchOptions so;
        so.k = kTopK;
        so.max_cn_size = kMaxCnSize;
        so.simulated_cn_io_micros = io_micros;
        cn::SearchStats ostats;
        Stopwatch serial_watch;
        const std::vector<SearchResult> want =
            oracle.Search(query, so, nullptr, &ostats);
        unsharded_ms += serial_watch.ElapsedMillis();
        ShardedSearchOptions sso;
        sso.k = kTopK;
        sso.num_threads = shards;
        sso.simulated_cn_io_micros = io_micros;
        Stopwatch shard_watch;
        const ShardedResponse got = engine.Search(query, sso);
        sharded_ms += shard_watch.ElapsedMillis();
        fanout += static_cast<double>(got.stats.shards_searched);
        rt_serial += static_cast<double>(ostats.cns_evaluated);
        size_t crit = 0, total = 0;
        for (const size_t c : got.stats.shard_cns_evaluated) {
          crit = c > crit ? c : crit;
          total += c;
        }
        rt_crit += static_cast<double>(crit);
        rt_total += static_cast<double>(total);
        CheckIdentical(want, got.results, query.c_str());
      }
    }
    const double runs = static_cast<double>(reps * queries.size());
    table.Row({Fmt(static_cast<int>(shards)), Fmt(unsharded_ms / runs),
               Fmt(sharded_ms / runs), Fmt(unsharded_ms / sharded_ms),
               Fmt(fanout / runs), Fmt(rt_serial / runs),
               Fmt(rt_crit / runs), Fmt(rt_total / runs)});
  }
}

void PruningSeries() {
  Banner("E23.2", "selection-based shard pruning under Zipf skew");
  const size_t shards = 8;
  const size_t num_queries = g_smoke ? 8 : 32;
  TablePrinter table({"theta", "queries", "fanout", "contributing",
                      "nonempty_pct", "prune_recall"});
  for (const double theta : {0.6, 1.0, 1.4}) {
    const ShardedCorpus corpus = MakeShardedDblp(CorpusOptions(theta), shards);
    ShardedEngineOptions eo;
    eo.max_cn_size = kMaxCnSize;
    const ShardedEngine engine(corpus, eo);
    const relational::DblpDatabase vocab_source =
        relational::MakeDblpDatabase(CorpusOptions(theta));
    const std::vector<std::string> queries =
        SkewQueries(vocab_source.vocabulary, theta, num_queries, 2);
    double fanout = 0, contributing = 0, nonempty = 0;
    size_t prunable = 0, caught = 0;
    for (const std::string& query : queries) {
      ShardedSearchOptions off;
      off.k = kTopK;
      off.prune = false;
      const ShardedResponse full = engine.Search(query, off);
      ShardedSearchOptions on;
      on.k = kTopK;
      on.prune = true;
      const ShardedResponse pruned = engine.Search(query, on);
      CheckIdentical(full.results, pruned.results, query.c_str());
      fanout += static_cast<double>(pruned.stats.shards_searched);
      // A shard "contributes" when it owns a merged top-k result — a
      // schedule-independent notion (the merge is bit-identical), unlike
      // per-shard offer counts under the shared kSparse threshold.
      std::vector<bool> owns(shards, false);
      for (const size_t s : full.result_shards) owns[s] = true;
      size_t contrib = 0;
      for (size_t s = 0; s < shards; ++s) contrib += owns[s] ? 1 : 0;
      contributing += static_cast<double>(contrib);
      nonempty += full.results.empty() ? 0 : 1;
      // Recall: of the shards owning no merged result, how many did the
      // selector skip? (Pruning is sound, so precision is always 1.)
      for (size_t s = 0; s < shards; ++s) {
        if (!owns[s]) {
          ++prunable;
          caught += pruned.stats.shard_pruned[s] ? 1 : 0;
        }
      }
    }
    const double n = static_cast<double>(num_queries);
    table.Row({Fmt(theta), Fmt(static_cast<uint64_t>(num_queries)),
               Fmt(fanout / n), Fmt(contributing / n),
               Fmt(nonempty / n * 100.0),
               Fmt(prunable == 0 ? 0.0
                                 : static_cast<double>(caught) /
                                       static_cast<double>(prunable))});
  }
}

void RunExperiment() {
  std::printf("E23: sharded scatter-gather serving%s\n",
              g_smoke ? " (smoke)" : "");
  // The vocabulary is deterministic in (vocab_size); any corpus's copy
  // serves as the sampling pool for every series.
  const relational::DblpDatabase vocab_source =
      relational::MakeDblpDatabase(CorpusOptions(1.0));
  ScalingSeries(vocab_source.vocabulary);
  PruningSeries();
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
