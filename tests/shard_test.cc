#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/trace.h"
#include "core/cn/search.h"
#include "relational/database.h"
#include "relational/dblp.h"
#include "relational/shop.h"
#include "shard/sharded_corpus.h"
#include "shard/sharded_engine.h"

namespace kws::shard {
namespace {

relational::DblpOptions SmallDblp(uint64_t seed) {
  relational::DblpOptions opts;
  opts.seed = seed;
  opts.num_conferences = 6;
  opts.num_authors = 40;
  opts.num_papers = 80;
  return opts;
}

// Queries mixing common title terms with rare author surnames: the rare
// ones are what give selection-based pruning something to prune on small
// shards.
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> kQueries = {
      "keyword search", "database query", "hristidis papakonstantinou",
      "xml"};
  return kQueries;
}

// ------------------------------------------------------- corpus invariants

TEST(ShardedCorpusTest, CombinedIsTheConcatenationOfTheShards) {
  for (const size_t shards : {1u, 3u, 5u}) {
    const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(7), shards);
    ASSERT_EQ(corpus.num_shards(), shards);
    const size_t num_tables = corpus.combined->num_tables();
    for (relational::TableId t = 0; t < num_tables; ++t) {
      size_t offset = 0;
      for (size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(corpus.row_offsets[s][t], offset)
            << shards << " shards, table " << t << ", shard " << s;
        const relational::Table& local = corpus.shards[s]->table(t);
        // Every shard row reappears verbatim at its offset position.
        for (relational::RowId r = 0; r < local.num_rows(); ++r) {
          EXPECT_EQ(corpus.combined->table(t).row(offset + r), local.row(r))
              << shards << " shards, table " << t << ", row " << r;
        }
        offset += local.num_rows();
      }
      EXPECT_EQ(corpus.combined->table(t).num_rows(), offset);
    }
  }
}

TEST(ShardedCorpusTest, KeyRemappingKeepsPrimaryKeysGloballyUnique) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(11), 4);
  for (relational::TableId t = 0; t < corpus.combined->num_tables(); ++t) {
    const relational::Table& table = corpus.combined->table(t);
    const relational::ColumnId pk = table.schema().primary_key;
    std::set<int64_t> seen;
    for (relational::RowId r = 0; r < table.num_rows(); ++r) {
      EXPECT_TRUE(seen.insert(table.cell(r, pk).AsInt()).second)
          << "duplicate primary key in table " << table.name();
    }
  }
}

TEST(ShardedCorpusTest, ShopCorpusMergesToo) {
  relational::ShopOptions opts;
  opts.seed = 5;
  opts.num_products = 60;
  const ShardedCorpus corpus = MakeShardedShop(opts, 3);
  ASSERT_EQ(corpus.num_shards(), 3u);
  size_t rows = 0;
  for (const auto& shard : corpus.shards) rows += shard->TotalRows();
  EXPECT_EQ(corpus.combined->TotalRows(), rows);
}

// ------------------------------------------------ sharded-vs-serial oracle

void ExpectSameResults(const std::vector<cn::SearchResult>& got,
                       const std::vector<cn::SearchResult>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
    EXPECT_EQ(got[i].cn_index, want[i].cn_index) << context << " rank " << i;
    EXPECT_EQ(got[i].tuples, want[i].tuples) << context << " rank " << i;
  }
}

/// The determinism contract: the merged top-k is bit-identical to the
/// unsharded engine over the combined database — for every seed, shard
/// count, thread count, and pruning setting — and pruning is sound
/// (every pruned shard contributes zero results even when searched).
class ShardOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardOracleTest, MergedTopKMatchesUnshardedBitForBit) {
  const uint64_t seed = GetParam();
  ShardedEngineOptions eo;
  eo.max_cn_size = 4;
  size_t pruned_total = 0;
  for (const size_t shards : {1u, 2u, 3u, 5u, 8u}) {
    const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(seed), shards);
    const cn::CnKeywordSearch oracle(*corpus.combined);
    const ShardedEngine engine(corpus, eo);
    for (const std::string& query : Queries()) {
      cn::SearchOptions so;
      so.k = 10;
      so.max_cn_size = eo.max_cn_size;
      so.strategy = cn::Strategy::kSparse;
      const std::vector<cn::SearchResult> want =
          oracle.Search(query, so, nullptr);
      // The unpruned run doubles as the pruning-soundness witness below.
      ShardedSearchStats unpruned_stats;
      for (const bool prune : {false, true}) {
        for (const size_t threads : {1u, 4u}) {
          ShardedSearchOptions sso;
          sso.k = so.k;
          sso.strategy = so.strategy;
          sso.prune = prune;
          sso.num_threads = threads;
          const ShardedResponse got = engine.Search(query, sso);
          const std::string context =
              query + " / " + std::to_string(shards) + " shards / " +
              std::to_string(threads) + " threads / prune=" +
              (prune ? "on" : "off");
          EXPECT_TRUE(got.status.ok()) << context;
          EXPECT_FALSE(got.stats.deadline_hit) << context;
          ExpectSameResults(got.results, want, context);
          // Renderings come from the owning shard but must read as the
          // combined database's.
          ASSERT_EQ(got.descriptions.size(), got.results.size()) << context;
          ASSERT_EQ(got.result_shards.size(), got.results.size()) << context;
          for (size_t i = 0; i < got.results.size(); ++i) {
            std::string want_desc;
            for (size_t j = 0; j < got.results[i].tuples.size(); ++j) {
              if (j > 0) want_desc += " -- ";
              want_desc +=
                  corpus.combined->TupleToString(got.results[i].tuples[j]);
            }
            EXPECT_EQ(got.descriptions[i], want_desc)
                << context << " rank " << i;
          }
          EXPECT_EQ(got.stats.shards_total, shards) << context;
          EXPECT_EQ(got.stats.shards_pruned + got.stats.shards_searched,
                    shards)
              << context;
          if (!prune) {
            EXPECT_EQ(got.stats.shards_pruned, 0u) << context;
            unpruned_stats = got.stats;
          } else {
            pruned_total += got.stats.shards_pruned;
            // Soundness: a shard the selector pruned produced nothing
            // when it *was* searched (the prune=off run above).
            for (size_t s = 0; s < shards; ++s) {
              if (got.stats.shard_pruned[s]) {
                EXPECT_EQ(unpruned_stats.shard_results[s], 0u)
                    << context << " shard " << s;
              }
            }
          }
        }
      }
    }
  }
  // The sweep must actually exercise pruning, not just tolerate it.
  EXPECT_GT(pruned_total, 0u) << "no query pruned any shard; the rare-term "
                                 "queries no longer discriminate";
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardOracleTest,
                         ::testing::Values(3, 17, 29, 71));

// ------------------------------------------------------------ search modes

TEST(ShardedEngineTest, EmptyQueryIsOkAndEmpty) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(3), 2);
  const ShardedEngine engine(corpus);
  const ShardedResponse resp = engine.Search("   ");
  EXPECT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.keywords.empty());
  EXPECT_TRUE(resp.results.empty());
}

TEST(ShardedEngineTest, ZeroKIsEmptyLikeUnsharded) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(17), 4);
  ShardedEngineOptions eo;
  eo.max_cn_size = 4;
  const ShardedEngine engine(corpus, eo);
  const cn::CnKeywordSearch oracle(*corpus.combined);
  for (const cn::Strategy strategy :
       {cn::Strategy::kNaive, cn::Strategy::kSparse,
        cn::Strategy::kGlobalPipeline}) {
    for (const size_t threads : {1u, 4u}) {
      const std::string context = std::string(cn::StrategyToString(strategy)) +
                                  " / " + std::to_string(threads) +
                                  " threads";
      cn::SearchOptions so;
      so.k = 0;
      so.max_cn_size = eo.max_cn_size;
      so.strategy = strategy;
      const std::vector<cn::SearchResult> want =
          oracle.Search("keyword search", so, nullptr);
      ShardedSearchOptions sso;
      sso.k = 0;
      sso.strategy = strategy;
      sso.num_threads = threads;
      const ShardedResponse got = engine.Search("keyword search", sso);
      EXPECT_TRUE(got.status.ok()) << context;
      EXPECT_TRUE(got.results.empty()) << context;
      EXPECT_TRUE(got.descriptions.empty()) << context;
      ExpectSameResults(got.results, want, context);
    }
  }
}

TEST(ShardedEngineTest, ResultShardsOwnTheirTuples) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(17), 4);
  const ShardedEngine engine(corpus);
  const ShardedResponse resp = engine.Search("keyword search");
  ASSERT_FALSE(resp.results.empty());
  for (size_t i = 0; i < resp.results.size(); ++i) {
    const size_t s = resp.result_shards[i];
    for (const relational::TupleId& tid : resp.results[i].tuples) {
      // All of a result's tuples live in one shard (joins are
      // shard-closed by construction).
      EXPECT_EQ(engine.OwningShard(tid), s) << "rank " << i;
      const relational::RowId offset = corpus.row_offsets[s][tid.table];
      EXPECT_GE(tid.row, offset);
      EXPECT_LT(tid.row - offset, corpus.shards[s]->table(tid.table).num_rows());
    }
  }
}

TEST(ShardedEngineTest, ExpiredGlobalDeadlineReportsPartial) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(3), 2);
  const ShardedEngine engine(corpus);
  ShardedSearchOptions sso;
  sso.deadline = Deadline::AfterMicros(0);
  const ShardedResponse resp = engine.Search("keyword search", sso);
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.stats.deadline_hit);
}

TEST(ShardedEngineTest, GenerousShardBudgetStaysComplete) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(3), 2);
  const ShardedEngine engine(corpus);
  ShardedSearchOptions sso;
  sso.shard_budget_micros = 60'000'000;
  const ShardedResponse resp = engine.Search("keyword search", sso);
  EXPECT_TRUE(resp.status.ok());
  EXPECT_FALSE(resp.stats.deadline_hit);
}

TEST(ShardedEngineTest, CountersAccumulateAcrossQueries) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(3), 3);
  const ShardedEngine engine(corpus);
  engine.Search("keyword search");
  engine.Search("database");
  obs::TelemetryRegistry& t = engine.telemetry();
  EXPECT_EQ(t.GetWindowedCounter("shard.queries")->total(), 2u);
  EXPECT_EQ(t.GetWindowedCounter("shard.fanout")->total() +
                t.GetWindowedCounter("shard.pruned")->total(),
            6u);
}

// -------------------------------------------------------- trace structure

TEST(ShardTraceTest, SpanStructureIsShardAndThreadCountInvariant) {
  std::string baseline;
  for (const size_t shards : {1u, 2u, 4u}) {
    const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(29), shards);
    const ShardedEngine engine(corpus);
    for (const size_t threads : {1u, 4u}) {
      trace::Tracer tracer;
      ShardedSearchOptions sso;
      sso.num_threads = threads;
      sso.tracer = &tracer;
      engine.Search("keyword search", sso);
      // Names-only signature: counter *values* (fanout, pruned) do vary
      // with the shard count; the span/counter structure must not.
      const std::string sig = tracer.StructureSignature(false);
      if (baseline.empty()) {
        baseline = sig;
      } else {
        EXPECT_EQ(sig, baseline)
            << shards << " shards, " << threads << " threads";
      }
    }
  }
}

TEST(ShardTraceTest, ExplainRendersScatterGatherSpans) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(3), 2);
  const ShardedEngine engine(corpus);
  const ShardedExplainResult explained = engine.Explain("keyword search");
  EXPECT_TRUE(explained.response.status.ok());
  for (const char* span :
       {"shard.search", "shard.select", "shard.scatter", "shard.gather"}) {
    EXPECT_NE(explained.tree.find(span), std::string::npos) << span;
    EXPECT_NE(explained.json.find(span), std::string::npos) << span;
  }
  // Explain's answer is the same search.
  const ShardedResponse direct = engine.Search("keyword search");
  ExpectSameResults(explained.response.results, direct.results, "explain");
}

// ------------------------------------------------------------- statusz

TEST(ShardStatuszTest, ReportsPerShardCountersAndGatherLatency) {
  const size_t shards = 3;
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(17), shards);
  const ShardedEngine engine(corpus);

  // Fresh engine: one per_shard object per shard, all counters zero.
  std::string doc = engine.Statusz();
  EXPECT_NE(doc.find("\"shards\":3"), std::string::npos) << doc;
  size_t objects = 0;
  for (size_t pos = 0; (pos = doc.find("{\"rows\":", pos)) !=
                       std::string::npos;
       ++pos) {
    ++objects;
  }
  EXPECT_EQ(objects, shards) << doc;
  EXPECT_NE(doc.find("\"queries\":0"), std::string::npos) << doc;

  ShardedSearchOptions sso;
  sso.prune = true;
  const ShardedResponse resp = engine.Search("keyword search", sso);
  ASSERT_TRUE(resp.status.ok());

  // The per-shard instruments agree with the response's own stats.
  uint64_t searched = 0;
  uint64_t pruned = 0;
  uint64_t gathered = 0;
  obs::TelemetryRegistry& t = engine.telemetry();
  for (size_t s = 0; s < shards; ++s) {
    const std::string prefix = "shard.s" + std::to_string(s);
    searched += t.GetWindowedCounter(prefix + ".searched")->total();
    pruned += t.GetWindowedCounter(prefix + ".pruned")->total();
    gathered += t.GetWindowedHistogram(prefix + ".gather_micros")->count();
  }
  EXPECT_EQ(searched, resp.stats.shards_searched);
  EXPECT_EQ(pruned, resp.stats.shards_pruned);
  // Every searched shard recorded exactly one gather latency sample.
  EXPECT_EQ(gathered, resp.stats.shards_searched);

  doc = engine.Statusz();
  EXPECT_NE(doc.find("\"queries\":1"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"gather\":{\"count\":"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"tuple_cache\":{\"configured\":true"),
            std::string::npos)
      << doc;
  // Two identical calls with no traffic in between are byte-identical
  // except the gather means/percentiles never change without traffic —
  // i.e. fully identical.
  EXPECT_EQ(doc, engine.Statusz());
}

// The document with every real-time reading (the gather mean and
// percentiles) replaced by `#`; everything left is a pure function of the
// query sequence.
std::string MaskGatherTimes(std::string doc) {
  for (const char* key : {"\"mean_micros\":", "\"p50_micros\":",
                          "\"p95_micros\":", "\"p99_micros\":"}) {
    const std::string k = key;
    for (size_t pos = doc.find(k); pos != std::string::npos;
         pos = doc.find(k, pos)) {
      pos += k.size();
      const size_t end = doc.find_first_of(",}", pos);
      doc.replace(pos, end - pos, "#");
    }
  }
  return doc;
}

TEST(ShardStatuszTest, GoldenBytes) {
  const ShardedCorpus corpus = MakeShardedDblp(SmallDblp(17), 3);
  const ShardedEngine engine(corpus);
  const std::string fresh =
      "{\"shards\":3,\"total_rows\":438,\"queries\":0,\"fanout\":0,"
      "\"pruned\":0,\"deadline_hits\":0,\"per_shard\":["
      "{\"rows\":155,\"searched\":0,\"pruned\":0,"
      "\"tuple_cache\":{\"configured\":true,\"capacity\":128,\"size\":0,"
      "\"hits\":0,\"misses\":0,\"insertions\":0,\"evictions\":0,"
      "\"invalidations\":0},"
      "\"gather\":{\"count\":0,\"mean_micros\":0.000,\"p50_micros\":0.000,"
      "\"p95_micros\":0.000,\"p99_micros\":0.000}},"
      "{\"rows\":137,\"searched\":0,\"pruned\":0,"
      "\"tuple_cache\":{\"configured\":true,\"capacity\":128,\"size\":0,"
      "\"hits\":0,\"misses\":0,\"insertions\":0,\"evictions\":0,"
      "\"invalidations\":0},"
      "\"gather\":{\"count\":0,\"mean_micros\":0.000,\"p50_micros\":0.000,"
      "\"p95_micros\":0.000,\"p99_micros\":0.000}},"
      "{\"rows\":146,\"searched\":0,\"pruned\":0,"
      "\"tuple_cache\":{\"configured\":true,\"capacity\":128,\"size\":0,"
      "\"hits\":0,\"misses\":0,\"insertions\":0,\"evictions\":0,"
      "\"invalidations\":0},"
      "\"gather\":{\"count\":0,\"mean_micros\":0.000,\"p50_micros\":0.000,"
      "\"p95_micros\":0.000,\"p99_micros\":0.000}}]}";
  EXPECT_EQ(engine.Statusz(), fresh);

  // A fixed sequence on one scatter thread: a repeat (tuple-cache hits),
  // queries selection prunes shards for, and an already-expired budget.
  ShardedSearchOptions sso;
  sso.num_threads = 1;
  for (const std::string& q : Queries()) engine.Search(q, sso);
  engine.Search("keyword search", sso);
  sso.deadline = Deadline::AfterMicros(0);
  engine.Search("database query", sso);

  // Per shard: searched 5 + pruned 1 = 6 queries and one gather sample
  // per search; the repeat and the expired-budget query reuse their four
  // cached tuple sets.
  const std::string after =
      "{\"shards\":3,\"total_rows\":438,\"queries\":6,\"fanout\":15,"
      "\"pruned\":3,\"deadline_hits\":1,\"per_shard\":["
      "{\"rows\":155,\"searched\":5,\"pruned\":1,"
      "\"tuple_cache\":{\"configured\":true,\"capacity\":128,\"size\":5,"
      "\"hits\":4,\"misses\":5,\"insertions\":5,\"evictions\":0,"
      "\"invalidations\":0},"
      "\"gather\":{\"count\":5,\"mean_micros\":#,\"p50_micros\":#,"
      "\"p95_micros\":#,\"p99_micros\":#}},"
      "{\"rows\":137,\"searched\":5,\"pruned\":1,"
      "\"tuple_cache\":{\"configured\":true,\"capacity\":128,\"size\":5,"
      "\"hits\":4,\"misses\":5,\"insertions\":5,\"evictions\":0,"
      "\"invalidations\":0},"
      "\"gather\":{\"count\":5,\"mean_micros\":#,\"p50_micros\":#,"
      "\"p95_micros\":#,\"p99_micros\":#}},"
      "{\"rows\":146,\"searched\":5,\"pruned\":1,"
      "\"tuple_cache\":{\"configured\":true,\"capacity\":128,\"size\":5,"
      "\"hits\":4,\"misses\":5,\"insertions\":5,\"evictions\":0,"
      "\"invalidations\":0},"
      "\"gather\":{\"count\":5,\"mean_micros\":#,\"p50_micros\":#,"
      "\"p95_micros\":#,\"p99_micros\":#}}]}";
  EXPECT_EQ(MaskGatherTimes(engine.Statusz()), after);
}

}  // namespace
}  // namespace kws::shard
