// E20: posting-list kernels — skip-based SeekGE, galloping intersection,
// and the term -> tuple-set frontier cache.
//
// Series:
//   E20.1 seek kernel: monotone probe sequences over synthetic postings —
//         linear merge scan vs lower_bound-from-scratch (the pre-kernel
//         baseline) vs the skip+gallop cursor;
//   E20.2 two-list intersection at length skews up to 1:10000 — pairwise
//         linear merge vs cooperative galloping;
//   E20.3 skewed SLCA on a bib document — brute-force scan vs the
//         lower_bound ILE (reimplemented here as the pre-kernel baseline)
//         vs the cursor-based ILE and Multiway now in the tree;
//   E20.4 TupleSets construction, cold vs warm term-frontier cache;
//   E20.5 end-to-end ServingEngine p50/p95 on the DBLP workload with the
//         tuple cache off/on (result cache disabled), plus the XML
//         pipeline snapshot; each row is a sequential Zipf replay through
//         ServingEngine::Query (ReplayZipf).
//
// `--smoke` shrinks every series to a <5 s run (the ci.sh gate) and skips
// the google-benchmark timers; absolute numbers are then meaningless but
// every code path still executes.
//
// Expected shape: linear scan pays O(gap) per seek and loses by orders of
// magnitude once probes are sparse; galloping intersection is sublinear
// in the long list, so its win grows with the skew (the adaptive kernel
// falls back to the pairwise merge below a 1:32 ratio, so balanced rows
// read ~1.0x); the warm tuple cache removes the per-query frontier
// build, which E20.5 shows is a negligible share of end-to-end CN
// search on this corpus — the honest negative result is recorded in
// EXPERIMENTS.md.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/cn/tuple_set_cache.h"
#include "core/cn/tuple_sets.h"
#include "core/engine/engine.h"
#include "core/engine/xml_engine.h"
#include "core/lca/slca.h"
#include "relational/dblp.h"
#include "relational/query_log.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "text/postings.h"
#include "text/tokenizer.h"
#include "xml/bibgen.h"

namespace kws::bench {
namespace {

bool g_smoke = false;

using text::DocId;
using text::PostingCursor;
using text::PostingSpan;

// ---------------------------------------------------------------------------
// Synthetic postings.

/// Strictly increasing doc array of `n` elements with uniform gaps in
/// [1, max_gap].
std::vector<DocId> MakeSortedList(size_t n, uint32_t max_gap, Rng& rng) {
  std::vector<DocId> docs;
  docs.reserve(n);
  DocId cur = 0;
  for (size_t i = 0; i < n; ++i) {
    cur += 1 + static_cast<DocId>(rng.Uniform(max_gap));
    docs.push_back(cur);
  }
  return docs;
}

/// `k` sorted probe targets spread over `list`'s doc domain.
std::vector<DocId> MakeProbes(const std::vector<DocId>& list, size_t k,
                              Rng& rng) {
  std::vector<DocId> probes;
  probes.reserve(k);
  const DocId max_doc = list.back();
  for (size_t i = 0; i < k; ++i) {
    probes.push_back(static_cast<DocId>(rng.Uniform(max_doc + 1)));
  }
  std::sort(probes.begin(), probes.end());
  return probes;
}

// ---------------------------------------------------------------------------
// E20.1: seek kernel.

void SeekKernel() {
  Banner("E20.1", "SeekGE: linear merge vs lower_bound vs skip+gallop");
  TablePrinter table({"|list|", "probes", "method", "ns_per_seek",
                      "speedup_vs_linear"});
  Rng rng(20);
  const size_t kProbes = 1024;
  const size_t reps = g_smoke ? 4 : 32;
  for (size_t n : std::vector<size_t>{
           1u << 14, g_smoke ? (1u << 17) : (1u << 20)}) {
    // Build the list once; wrap it in a PostingList to get a skip table.
    const std::vector<DocId> docs = MakeSortedList(n, 8, rng);
    text::PostingList plist;
    plist.Reserve(n);
    for (DocId d : docs) plist.Add(d);
    const std::vector<DocId> probes = MakeProbes(docs, kProbes, rng);
    const PostingSpan span(plist);

    auto time_method = [&](auto&& one_pass) {
      Stopwatch sw;
      size_t acc = 0;
      for (size_t r = 0; r < reps; ++r) acc += one_pass();
      benchmark::DoNotOptimize(acc);
      return sw.ElapsedMicros() * 1000.0 /
             static_cast<double>(reps * probes.size());
    };

    const double linear_ns = time_method([&] {
      size_t pos = 0, acc = 0;
      for (DocId t : probes) {
        pos = text::SeekGELinear(span, pos, t);
        acc += pos;
      }
      return acc;
    });
    const double lb_ns = time_method([&] {
      size_t acc = 0;
      for (DocId t : probes) {
        acc += static_cast<size_t>(
            std::lower_bound(docs.begin(), docs.end(), t) - docs.begin());
      }
      return acc;
    });
    const double gallop_ns = time_method([&] {
      PostingCursor cur(span);
      size_t acc = 0;
      for (DocId t : probes) {
        cur.SeekGE(t);
        acc += cur.pos();
      }
      return acc;
    });
    table.Row({Fmt(static_cast<uint64_t>(n)),
               Fmt(static_cast<uint64_t>(kProbes)), "linear_merge",
               Fmt(linear_ns), Fmt(1.0)});
    table.Row({Fmt(static_cast<uint64_t>(n)),
               Fmt(static_cast<uint64_t>(kProbes)), "lower_bound",
               Fmt(lb_ns), Fmt(linear_ns / lb_ns)});
    table.Row({Fmt(static_cast<uint64_t>(n)),
               Fmt(static_cast<uint64_t>(kProbes)), "skip_gallop",
               Fmt(gallop_ns), Fmt(linear_ns / gallop_ns)});
  }
}

// ---------------------------------------------------------------------------
// E20.2: intersection at skew.

void IntersectionSkew() {
  Banner("E20.2", "two-list intersection: linear merge vs galloping");
  TablePrinter table({"|long|", "|short|", "skew", "linear_ms",
                      "gallop_ms", "speedup"});
  Rng rng(21);
  const size_t big_n = g_smoke ? (1u << 16) : (1u << 18);
  const std::vector<DocId> big = MakeSortedList(big_n, 6, rng);
  for (size_t ratio : {1u, 10u, 100u, 1000u, 10000u}) {
    const size_t small_n = std::max<size_t>(big_n / ratio, 4);
    // Sample the short list from the long one so the intersection is
    // nonempty (the interesting regime: every probe does real work).
    std::vector<DocId> small;
    small.reserve(small_n);
    for (size_t i = 0; i < small_n; ++i) {
      small.push_back(big[rng.Index(big.size())]);
    }
    std::sort(small.begin(), small.end());
    small.erase(std::unique(small.begin(), small.end()), small.end());
    const std::vector<PostingSpan> spans = {PostingSpan(big),
                                            PostingSpan(small)};
    const std::vector<DocId> expect = text::IntersectListsLinear(spans);
    if (text::IntersectLists(spans) != expect) {
      std::printf("E20.2: kernel mismatch at skew 1:%zu\n", ratio);
      return;
    }
    const size_t reps = g_smoke ? 4 : 16;
    Stopwatch sw1;
    for (size_t r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(text::IntersectListsLinear(spans));
    }
    const double linear_ms = sw1.ElapsedMillis() / static_cast<double>(reps);
    Stopwatch sw2;
    for (size_t r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(text::IntersectLists(spans));
    }
    const double gallop_ms = sw2.ElapsedMillis() / static_cast<double>(reps);
    table.Row({Fmt(static_cast<uint64_t>(big.size())),
               Fmt(static_cast<uint64_t>(small.size())),
               "1:" + std::to_string(ratio), Fmt(linear_ms), Fmt(gallop_ms),
               Fmt(gallop_ms == 0 ? 0.0 : linear_ms / gallop_ms)});
  }
}

// ---------------------------------------------------------------------------
// E20.3: skewed SLCA.

using xml::XmlNodeId;
using xml::XmlTree;

/// Minimal elements of a candidate set (document order) — mirrors the
/// AntiChain step of the library implementation.
std::vector<XmlNodeId> AntiChainLocal(const XmlTree& tree,
                                      std::vector<XmlNodeId> candidates) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<XmlNodeId> stack;
  for (XmlNodeId c : candidates) {
    while (!stack.empty() && tree.IsAncestorOrSelf(stack.back(), c)) {
      stack.pop_back();
    }
    stack.push_back(c);
  }
  return stack;
}

/// The pre-kernel ILE: every anchor re-binary-searches every other list
/// from scratch with std::lower_bound (no cursors, no skip table). Kept
/// here as the E20.3 baseline the cursor implementation is measured
/// against.
std::vector<XmlNodeId> SlcaIleLowerBound(
    const XmlTree& tree, const std::vector<std::vector<XmlNodeId>>& lists) {
  if (lists.empty()) return {};
  size_t anchor_list = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i].size() < lists[anchor_list].size()) anchor_list = i;
  }
  std::vector<XmlNodeId> candidates;
  candidates.reserve(lists[anchor_list].size());
  for (XmlNodeId v : lists[anchor_list]) {
    XmlNodeId candidate = v;
    uint32_t candidate_depth = tree.depth(v);
    bool first = true;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (i == anchor_list) continue;
      const std::vector<XmlNodeId>& list = lists[i];
      auto it = std::lower_bound(list.begin(), list.end(), v);
      XmlNodeId best = xml::kNoXmlNode;
      uint32_t best_depth = 0;
      if (it != list.end()) {
        const XmlNodeId x = tree.Lca(v, *it);
        best = x;
        best_depth = tree.depth(x);
      }
      if (it != list.begin()) {
        const XmlNodeId x = tree.Lca(v, *(it - 1));
        if (best == xml::kNoXmlNode || tree.depth(x) > best_depth) {
          best = x;
          best_depth = tree.depth(x);
        }
      }
      if (first || best_depth < candidate_depth) {
        candidate = best;
        candidate_depth = best_depth;
      }
      first = false;
    }
    candidates.push_back(candidate);
  }
  return AntiChainLocal(tree, std::move(candidates));
}

void SkewedSlca() {
  Banner("E20.3", "skewed SLCA: scan vs lower_bound ILE vs cursor ILE");
  xml::BibOptions opts;
  opts.num_venues = g_smoke ? 60 : 400;
  opts.papers_per_venue = 20;
  const xml::BibDocument doc = MakeBibDocument(opts);
  // Rare term from the Zipf tail, frequent term rank 0: the 1:1000-ish
  // selectivity regime where seeks beat scans hardest.
  std::string rare;
  for (size_t i = doc.vocabulary.size(); i > 0; --i) {
    if (!doc.tree.MatchNodes(doc.vocabulary[i - 1]).empty()) {
      rare = doc.vocabulary[i - 1];
      break;
    }
  }
  const auto lists =
      lca::MatchLists(doc.tree, {rare, doc.vocabulary[0]});
  if (lists.empty()) return;
  std::printf("nodes=%zu  |S_rare|=%zu  |S_freq|=%zu  (skew 1:%zu)\n",
              static_cast<size_t>(doc.tree.size()), lists[0].size(),
              lists[1].size(),
              lists[0].empty() ? 0 : lists[1].size() / lists[0].size());

  const std::vector<XmlNodeId> expect = lca::SlcaBruteForce(doc.tree, lists);
  if (SlcaIleLowerBound(doc.tree, lists) != expect ||
      lca::SlcaIndexedLookupEager(doc.tree, lists) != expect ||
      lca::SlcaMultiway(doc.tree, lists) != expect) {
    std::printf("E20.3: SLCA mismatch between implementations\n");
    return;
  }

  const size_t reps = g_smoke ? 3 : 10;
  TablePrinter table({"algorithm", "ms", "speedup_vs_scan", "slcas"});
  Stopwatch sw_scan;
  std::vector<XmlNodeId> r;
  for (size_t i = 0; i < reps; ++i) r = lca::SlcaBruteForce(doc.tree, lists);
  const double scan_ms = sw_scan.ElapsedMillis() / static_cast<double>(reps);
  table.Row({"scan", Fmt(scan_ms), Fmt(1.0), Fmt(r.size())});
  Stopwatch sw_lb;
  for (size_t i = 0; i < reps; ++i) r = SlcaIleLowerBound(doc.tree, lists);
  const double lb_ms = sw_lb.ElapsedMillis() / static_cast<double>(reps);
  table.Row({"ile_lower_bound", Fmt(lb_ms),
             Fmt(lb_ms == 0 ? 0.0 : scan_ms / lb_ms), Fmt(r.size())});
  Stopwatch sw_ile;
  for (size_t i = 0; i < reps; ++i) {
    r = lca::SlcaIndexedLookupEager(doc.tree, lists);
  }
  const double ile_ms = sw_ile.ElapsedMillis() / static_cast<double>(reps);
  table.Row({"ile_seek", Fmt(ile_ms),
             Fmt(ile_ms == 0 ? 0.0 : scan_ms / ile_ms), Fmt(r.size())});
  Stopwatch sw_mw;
  for (size_t i = 0; i < reps; ++i) r = lca::SlcaMultiway(doc.tree, lists);
  const double mw_ms = sw_mw.ElapsedMillis() / static_cast<double>(reps);
  table.Row({"multiway_seek", Fmt(mw_ms),
             Fmt(mw_ms == 0 ? 0.0 : scan_ms / mw_ms), Fmt(r.size())});
}

// ---------------------------------------------------------------------------
// E20.4: tuple-set construction, cold vs warm frontier cache.

void TupleSetCacheSeries(const relational::DblpDatabase& dblp,
                         const std::vector<std::string>& pool) {
  Banner("E20.4", "TupleSets construction: cold vs warm frontier cache");
  // The short-query regime the serving layer targets.
  std::vector<std::vector<std::string>> queries;
  for (const std::string& q : pool) {
    if (std::count(q.begin(), q.end(), ' ') <= 1) {
      queries.push_back(text::Tokenizer().Tokenize(q));
      if (queries.size() == (g_smoke ? 8u : 32u)) break;
    }
  }
  if (queries.empty()) return;
  const size_t reps = g_smoke ? 2 : 8;

  Stopwatch sw_cold;
  for (size_t r = 0; r < reps; ++r) {
    for (const auto& kws : queries) {
      cn::TupleSets ts(*dblp.db, kws);
      benchmark::DoNotOptimize(&ts);
    }
  }
  const double cold_ms = sw_cold.ElapsedMillis() / static_cast<double>(reps);

  cn::TupleSetCache cache(*dblp.db, 256);
  for (const auto& kws : queries) {  // warm-up pass fills every frontier
    cn::TupleSets ts(*dblp.db, kws, &cache);
  }
  Stopwatch sw_warm;
  for (size_t r = 0; r < reps; ++r) {
    for (const auto& kws : queries) {
      cn::TupleSets ts(*dblp.db, kws, &cache);
      benchmark::DoNotOptimize(&ts);
    }
  }
  const double warm_ms = sw_warm.ElapsedMillis() / static_cast<double>(reps);

  TablePrinter table({"queries", "cold_ms", "warm_ms", "speedup",
                      "cache_hits", "cache_misses"});
  table.Row({Fmt(static_cast<uint64_t>(queries.size())), Fmt(cold_ms),
             Fmt(warm_ms), Fmt(warm_ms == 0 ? 0.0 : cold_ms / warm_ms),
             Fmt(cache.stats().hits), Fmt(cache.stats().misses)});
}

// ---------------------------------------------------------------------------
// E20.5: end-to-end serving deltas.

void EndToEnd(const engine::KeywordSearchEngine& eng,
              const std::vector<std::string>& pool) {
  Banner("E20.5", "end-to-end ServingEngine: tuple cache off vs on");
  TablePrinter table({"pipeline", "tuple_cache", "qps", "p50_ms", "p95_ms"});
  const size_t requests = g_smoke ? 60 : 300;
  serve::QueryRequest base;
  base.k = 5;
  for (size_t tuple_capacity : {size_t{0}, size_t{256}}) {
    serve::ServeOptions so;
    so.num_workers = 0;     // Query() executes inline; no pool needed
    so.cache_capacity = 0;  // isolate the tuple cache from the result cache
    so.tuple_cache_capacity = tuple_capacity;
    serve::ServingEngine server(&eng, nullptr, so);
    const ReplayReport r = ReplayZipf(server, pool, base, requests);
    table.Row({"relational", tuple_capacity == 0 ? "off" : "on", Fmt(r.qps),
               Fmt(r.p50_ms), Fmt(r.p95_ms)});
  }

  // The XML pipeline rides the same kernels through SLCA/XSeek; one
  // snapshot records its served latency.
  xml::BibOptions bopts;
  bopts.num_venues = g_smoke ? 20 : 80;
  bopts.papers_per_venue = 10;
  const xml::BibDocument doc = MakeBibDocument(bopts);
  const engine::XmlKeywordSearch xml_eng(doc.tree);
  std::vector<std::string> xml_pool;
  for (size_t i = 1; i < doc.vocabulary.size() && xml_pool.size() < 24;
       i += 3) {
    xml_pool.push_back(doc.vocabulary[0] + " " + doc.vocabulary[i]);
  }
  serve::ServeOptions so;
  so.num_workers = 0;
  so.cache_capacity = 0;
  serve::ServingEngine server(nullptr, &xml_eng, so);
  base.pipeline = serve::Pipeline::kXml;
  const ReplayReport r = ReplayZipf(server, xml_pool, base, requests);
  table.Row({"xml", "n/a", Fmt(r.qps), Fmt(r.p50_ms), Fmt(r.p95_ms)});
}

void RunExperiment() {
  std::printf("E20: posting-list kernels (SeekGE, galloping intersection, "
              "tuple-set cache)%s\n", g_smoke ? " [smoke]" : "");
  SeekKernel();
  IntersectionSkew();
  SkewedSlca();

  relational::DblpOptions opts;
  opts.num_authors = g_smoke ? 20 : 40;
  opts.num_papers = g_smoke ? 40 : 80;
  opts.num_conferences = 6;
  const relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  relational::QueryLogOptions lopts;
  lopts.num_queries = 200;
  std::vector<std::string> pool = serve::QueryPool(
      relational::MakeQueryLog(*dblp.db, dblp.paper, lopts));
  std::vector<std::string> short_pool;
  for (std::string& q : pool) {
    if (std::count(q.begin(), q.end(), ' ') <= 1) {
      short_pool.push_back(std::move(q));
    }
  }
  TupleSetCacheSeries(dblp, short_pool);
  const engine::KeywordSearchEngine eng(*dblp.db);
  EndToEnd(eng, short_pool);
}

// Timers: the two kernels in isolation (skipped under --smoke).
void BM_SeekGE(benchmark::State& state) {
  static Rng rng(22);
  static const std::vector<DocId> docs = MakeSortedList(1u << 18, 8, rng);
  static const std::vector<DocId> probes = MakeProbes(docs, 1024, rng);
  static text::PostingList plist = [] {
    text::PostingList p;
    for (DocId d : docs) p.Add(d);
    return p;
  }();
  const PostingSpan span(plist);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      size_t pos = 0;
      for (DocId t : probes) pos = text::SeekGELinear(span, pos, t);
      benchmark::DoNotOptimize(pos);
    } else {
      PostingCursor cur(span);
      for (DocId t : probes) cur.SeekGE(t);
      benchmark::DoNotOptimize(cur.pos());
    }
  }
  state.SetLabel(state.range(0) == 0 ? "linear" : "skip_gallop");
}
BENCHMARK(BM_SeekGE)->Arg(0)->Arg(1);

void BM_Intersect(benchmark::State& state) {
  static Rng rng(23);
  static const std::vector<DocId> big = MakeSortedList(1u << 17, 6, rng);
  static const std::vector<DocId> small_list = [] {
    std::vector<DocId> s;
    for (size_t i = 0; i < big.size(); i += 1000) s.push_back(big[i]);
    return s;
  }();
  const std::vector<PostingSpan> spans = {PostingSpan(big),
                                          PostingSpan(small_list)};
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(text::IntersectListsLinear(spans));
    } else {
      benchmark::DoNotOptimize(text::IntersectLists(spans));
    }
  }
  state.SetLabel(state.range(0) == 0 ? "linear" : "gallop");
}
BENCHMARK(BM_Intersect)->Arg(0)->Arg(1);

}  // namespace
}  // namespace kws::bench

int main(int argc, char** argv) {
  kws::bench::ParseJsonFlag(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) kws::bench::g_smoke = true;
  }
  kws::bench::RunExperiment();
  if (kws::bench::g_smoke) return kws::bench::FlushJson() ? 0 : 1;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return kws::bench::FlushJson() ? 0 : 1;
}
