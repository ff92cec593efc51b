#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/concurrent_topk.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "common/topk.h"
#include "core/cn/candidate_network.h"
#include "core/cn/execute.h"
#include "core/cn/search.h"
#include "core/cn/tuple_sets.h"
#include "relational/database.h"
#include "relational/dblp.h"
#include "shard/sharded_corpus.h"
#include "shard/sharded_engine.h"
#include "text/tokenizer.h"

namespace kws::cn {
namespace {

// ----------------------------------------------------- ConcurrentTopK unit

struct Item {
  double score = 0;
  int id = 0;
};

struct ItemOrder {
  bool operator()(const Item& a, const Item& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
};

std::vector<Item> MakeItems(size_t n) {
  // Deterministic scores with plenty of exact ties (score = id % 17).
  std::vector<Item> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    items.push_back(Item{static_cast<double>(i % 17), static_cast<int>(i)});
  }
  return items;
}

void ExpectSameItems(const std::vector<Item>& got,
                     const std::vector<Item>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
  }
}

TEST(ConcurrentTopKTest, MatchesOrderedTopKSingleThread) {
  const auto items = MakeItems(200);
  OrderedTopK<Item, ItemOrder> reference(10);
  ConcurrentTopK<Item, ItemOrder> concurrent(10, 4);
  for (size_t i = 0; i < items.size(); ++i) {
    reference.Offer(items[i]);
    concurrent.Offer(i, items[i].score, items[i]);  // round-robin shards
  }
  ExpectSameItems(concurrent.TakeSorted(), reference.TakeSorted());
}

TEST(ConcurrentTopKTest, MatchesOrderedTopKUnderConcurrentOffers) {
  const auto items = MakeItems(5000);
  OrderedTopK<Item, ItemOrder> reference(16);
  for (const Item& item : items) reference.Offer(item);
  const auto want = reference.TakeSorted();
  for (const size_t threads : {2u, 4u, 8u}) {
    ConcurrentTopK<Item, ItemOrder> concurrent(16, threads);
    ThreadPool pool(threads);
    pool.RunOnAll([&](size_t w) {
      for (size_t i = w; i < items.size(); i += threads) {
        concurrent.Offer(w, items[i].score, items[i]);
      }
    });
    ExpectSameItems(concurrent.TakeSorted(), want);
  }
}

TEST(ConcurrentTopKTest, ThresholdIsLowerBoundAndNeverRejectsTies) {
  const auto items = MakeItems(300);
  ConcurrentTopK<Item, ItemOrder> concurrent(8, 2);
  for (size_t i = 0; i < items.size(); ++i) {
    concurrent.Offer(i % 2, items[i].score, items[i]);
  }
  auto best = concurrent.TakeSorted();
  ASSERT_EQ(best.size(), 8u);
  const double kth = best.back().score;
  // A fresh collector replays the offers so the threshold is live.
  ConcurrentTopK<Item, ItemOrder> replay(8, 2);
  for (size_t i = 0; i < items.size(); ++i) {
    replay.Offer(i % 2, items[i].score, items[i]);
  }
  EXPECT_LE(replay.ThresholdScore(), kth);
  // Exact ties with the final k-th score must never be rejected (their
  // tie-break key might still beat the retained worst).
  EXPECT_FALSE(replay.WouldReject(kth));
  EXPECT_TRUE(replay.WouldReject(-1.0));
}

// ------------------------------------------------ brute-force reference

void ExpectSameResults(const std::vector<SearchResult>& got,
                       const std::vector<SearchResult>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
    EXPECT_EQ(got[i].cn_index, want[i].cn_index) << context << " rank " << i;
    EXPECT_EQ(got[i].tuples, want[i].tuples) << context << " rank " << i;
  }
}

/// The reference every evaluation path is judged against: enumerate the
/// CNs, join every one of them in full with `ExecuteCn` (no bound, no
/// threshold, no collector, no strategy code), sort all results by
/// `SearchResultOrder` and keep the first `k`. The CN list is built
/// exactly as `CnKeywordSearch::Search` builds it, so `cn_index` lines up.
std::vector<SearchResult> BruteForceTopK(const relational::Database& db,
                                         const std::string& query, size_t k,
                                         size_t max_cn_size) {
  const std::vector<std::string> keywords = text::Tokenizer().Tokenize(query);
  const TupleSets ts(db, keywords);
  const std::vector<CandidateNetwork> cns = EnumerateCandidateNetworks(
      db, ts.table_masks(), ts.full_mask(), {.max_size = max_cn_size});
  std::vector<SearchResult> all;
  for (size_t i = 0; i < cns.size(); ++i) {
    for (const JoinedTree& jt : ExecuteCn(db, cns[i], ts)) {
      SearchResult r;
      r.cn_index = i;
      r.score = jt.score;
      for (uint32_t n = 0; n < cns[i].nodes.size(); ++n) {
        r.tuples.push_back(relational::TupleId{cns[i].nodes[n].table,
                                               jt.rows[n]});
      }
      all.push_back(std::move(r));
    }
  }
  std::sort(all.begin(), all.end(), SearchResultOrder());
  if (all.size() > k) all.resize(k);
  return all;
}

relational::DblpOptions OracleDblp(uint64_t seed) {
  relational::DblpOptions opts;
  opts.seed = seed;
  opts.num_authors = 40;
  opts.num_papers = 80;
  opts.num_conferences = 6;
  return opts;
}

const std::vector<std::string>& OracleQueries() {
  static const std::vector<std::string> kQueries = {"keyword search",
                                                    "database query", "xml"};
  return kQueries;
}

// The k sweep moves the k-th score across bounds and ties, so the stop and
// skip decisions matter: at k = 10 alone a 3% over-tight bound and a tie
// that stops instead of skipping both go unnoticed (k = 1 and 25 catch
// them).
constexpr size_t kOracleKs[] = {1, 3, 10, 25};

constexpr Strategy kStrategies[] = {Strategy::kNaive, Strategy::kSparse,
                                    Strategy::kGlobalPipeline};

/// Every strategy at every thread count returns the brute-force ranked
/// list bit for bit, ties included, per seed.
class ParallelOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelOracleTest, EveryThreadCountMatchesBruteForce) {
  relational::DblpDatabase dblp = MakeDblpDatabase(OracleDblp(GetParam()));
  CnKeywordSearch search(*dblp.db);
  for (const std::string& query : OracleQueries()) {
    for (const size_t k : kOracleKs) {
      const std::vector<SearchResult> want =
          BruteForceTopK(*dblp.db, query, k, /*max_cn_size=*/4);
      for (Strategy strategy : kStrategies) {
        SearchOptions so;
        so.k = k;
        so.max_cn_size = 4;
        so.strategy = strategy;
        SearchStats one_thread;
        for (const size_t threads : {1u, 2u, 4u, 8u}) {
          so.num_threads = threads;
          SearchStats stats;
          const auto got = search.Search(query, so, nullptr, &stats);
          const std::string context =
              query + " / k=" + std::to_string(k) + " / " +
              StrategyToString(strategy) + " / " + std::to_string(threads) +
              " threads";
          ExpectSameResults(got, want, context);
          EXPECT_FALSE(stats.deadline_hit) << context;
          if (threads == 1) {
            one_thread = stats;
            continue;
          }
          EXPECT_EQ(stats.cns_enumerated, one_thread.cns_enumerated)
              << context;
          if (strategy == Strategy::kNaive) {
            // No pruning anywhere: the work counters are exact and equal
            // at every thread count.
            EXPECT_EQ(stats.cns_evaluated, one_thread.cns_evaluated)
                << context;
            EXPECT_EQ(stats.results_materialized,
                      one_thread.results_materialized)
                << context;
            EXPECT_EQ(stats.join_lookups, one_thread.join_lookups)
                << context;
          }
          if (strategy == Strategy::kGlobalPipeline) {
            // Admission is serial at every thread count: the admitted-CN
            // count is thread-count independent.
            EXPECT_EQ(stats.cns_evaluated, one_thread.cns_evaluated)
                << context;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelOracleTest,
                         ::testing::Values(3, 17, 29, 71));

/// The scatter-gather path against the same reference: every strategy
/// and shard count merges to the brute-force top-k of the combined
/// database.
class ShardedOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedOracleTest, EveryStrategyAndShardCountMatchesBruteForce) {
  shard::ShardedEngineOptions eo;
  eo.max_cn_size = 4;
  for (const size_t shards : {1u, 2u, 4u}) {
    const shard::ShardedCorpus corpus =
        shard::MakeShardedDblp(OracleDblp(GetParam()), shards);
    const shard::ShardedEngine engine(corpus, eo);
    for (const std::string& query : OracleQueries()) {
      for (const size_t k : kOracleKs) {
        const std::vector<SearchResult> want =
            BruteForceTopK(*corpus.combined, query, k, eo.max_cn_size);
        for (Strategy strategy : kStrategies) {
          for (const size_t threads : {1u, 4u}) {
            shard::ShardedSearchOptions sso;
            sso.k = k;
            sso.strategy = strategy;
            sso.num_threads = threads;
            const shard::ShardedResponse got = engine.Search(query, sso);
            const std::string context =
                query + " / k=" + std::to_string(k) + " / " +
                StrategyToString(strategy) + " / " + std::to_string(shards) +
                " shards / " + std::to_string(threads) + " threads";
            EXPECT_TRUE(got.status.ok()) << context;
            ExpectSameResults(got.results, want, context);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedOracleTest,
                         ::testing::Values(3, 17, 29, 71));

/// The three strategies agree on the full ranked list — scores, CN
/// indices and tuples, ties included — thanks to the shared total order
/// (the kSparse reversed-pair sort used to flip tied-bound CNs).
class StrategyTieBreakOracleTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(StrategyTieBreakOracleTest, IdenticalRankedListsAcrossStrategies) {
  relational::DblpOptions opts;
  opts.seed = GetParam();
  opts.num_authors = 30;
  opts.num_papers = 60;
  opts.num_conferences = 5;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  CnKeywordSearch search(*dblp.db);
  for (const std::string& query :
       {std::string("keyword search"), std::string("database")}) {
    SearchOptions so;
    so.k = 20;
    so.max_cn_size = 4;
    so.strategy = Strategy::kNaive;
    const auto naive = search.Search(query, so, nullptr);
    so.strategy = Strategy::kSparse;
    const auto sparse = search.Search(query, so, nullptr);
    so.strategy = Strategy::kGlobalPipeline;
    const auto pipeline = search.Search(query, so, nullptr);
    ExpectSameResults(sparse, naive, query + " sparse-vs-naive");
    ExpectSameResults(pipeline, naive, query + " pipeline-vs-naive");
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StrategyTieBreakOracleTest,
                         ::testing::Values(5, 23, 42, 97));

TEST(ParallelDeadlineTest, ExpiredBudgetIsIdenticalAcrossThreadCounts) {
  relational::DblpDatabase dblp = relational::MakeDblpDatabase({});
  CnKeywordSearch search(*dblp.db);
  for (const size_t threads : {1u, 2u, 8u}) {
    SearchOptions so;
    so.k = 10;
    so.strategy = Strategy::kSparse;
    so.num_threads = threads;
    so.deadline = Deadline::AfterMicros(0);
    SearchStats stats;
    const auto results = search.Search("keyword search", so, nullptr, &stats);
    EXPECT_TRUE(results.empty()) << threads << " threads";
    EXPECT_TRUE(stats.deadline_hit) << threads << " threads";
  }
}

TEST(ZeroKTest, EveryStrategyReturnsNothingWithStatsFilled) {
  relational::DblpDatabase dblp = MakeDblpDatabase(OracleDblp(3));
  CnKeywordSearch search(*dblp.db);
  for (Strategy strategy : kStrategies) {
    for (const size_t threads : {1u, 4u}) {
      const std::string context = std::string(StrategyToString(strategy)) +
                                  " / " + std::to_string(threads) +
                                  " threads";
      SearchOptions so;
      so.k = 0;
      so.max_cn_size = 4;
      so.strategy = strategy;
      so.num_threads = threads;
      SearchStats stats;
      stats.cns_evaluated = 99;  // stale values must not survive
      std::vector<CandidateNetwork> cns;
      const auto results = search.Search("keyword search", so, &cns, &stats);
      EXPECT_TRUE(results.empty()) << context;
      EXPECT_FALSE(cns.empty()) << context;
      EXPECT_EQ(stats.cns_enumerated, cns.size()) << context;
      EXPECT_EQ(stats.cns_evaluated, 0u) << context;
      EXPECT_FALSE(stats.deadline_hit) << context;
    }
  }
}

// ------------------------------------------- dead-CN stats regression (E2)

using relational::Database;
using relational::TableSchema;
using relational::Value;
using relational::ValueType;

/// author/paper/writes with rows such that, for the query
/// "widom xml data", CNs of the shape author{widom} - writes -
/// paper{xml,data} are enumerated (paper matches xml and data in
/// *separate* rows, so the table mask admits the node) yet dead (the
/// combined tuple set is empty). The empty node sits after the live
/// author node in node order — exactly the shape the old
/// !kw_nodes.empty() test miscounted as evaluated.
struct TinyDb {
  std::unique_ptr<Database> db;
  relational::TableId author = 0, paper = 0, writes = 0;

  TinyDb() : db(std::make_unique<Database>()) {
    TableSchema a;
    a.name = "author";
    a.columns = {{"aid", ValueType::kInt, false},
                 {"name", ValueType::kText, true}};
    a.primary_key = 0;
    author = db->CreateTable(a).value();
    TableSchema p;
    p.name = "paper";
    p.columns = {{"pid", ValueType::kInt, false},
                 {"title", ValueType::kText, true}};
    p.primary_key = 0;
    paper = db->CreateTable(p).value();
    TableSchema w;
    w.name = "writes";
    w.columns = {{"wid", ValueType::kInt, false},
                 {"aid", ValueType::kInt, false},
                 {"pid", ValueType::kInt, false}};
    w.primary_key = 0;
    writes = db->CreateTable(w).value();

    auto& at = db->table(author);
    at.Append({Value::Int(0), Value::Text("widom")}).value();
    auto& pt = db->table(paper);
    pt.Append({Value::Int(0), Value::Text("xml keyword")}).value();
    pt.Append({Value::Int(1), Value::Text("data mining")}).value();
    auto& wt = db->table(writes);
    wt.Append({Value::Int(0), Value::Int(0), Value::Int(0)}).value();
    wt.Append({Value::Int(1), Value::Int(0), Value::Int(1)}).value();

    EXPECT_TRUE(db->AddForeignKey("writes", "aid", "author", "aid").ok());
    EXPECT_TRUE(db->AddForeignKey("writes", "pid", "paper", "pid").ok());
    db->BuildTextIndexes();
  }
};

TEST(SearchStatsTest, PipelineCountsOnlyAdmittedCns) {
  TinyDb tiny;
  const std::string query = "widom xml data";
  const auto keywords = text::Tokenizer().Tokenize(query);
  TupleSets ts(*tiny.db, keywords);
  const auto cns = EnumerateCandidateNetworks(*tiny.db, ts.table_masks(),
                                              ts.full_mask(), {.max_size = 4});
  ASSERT_FALSE(cns.empty());

  // Brute-force admission: a CN is live iff every non-free node's tuple
  // set is non-empty.
  size_t live = 0;
  bool overcount_possible = false;
  for (const auto& cn : cns) {
    bool dead = false;
    bool earlier_nonempty = false;
    bool dead_after_nonempty = false;
    for (const auto& node : cn.nodes) {
      if (node.free()) continue;
      if (ts.Get(node.table, node.mask).empty()) {
        dead = true;
        if (earlier_nonempty) dead_after_nonempty = true;
      } else {
        earlier_nonempty = true;
      }
    }
    live += !dead;
    // The regression shape: keyword nodes were already pushed when the
    // empty list surfaced, which the old !kw_nodes.empty() test counted.
    overcount_possible |= dead_after_nonempty;
  }
  ASSERT_TRUE(overcount_possible)
      << "workload no longer exhibits the dead-CN overcount shape";

  CnKeywordSearch search(*tiny.db);
  SearchOptions so;
  so.k = 10;
  so.max_cn_size = 4;
  so.strategy = Strategy::kGlobalPipeline;
  SearchStats stats;
  search.Search(query, so, nullptr, &stats);
  EXPECT_EQ(stats.cns_enumerated, cns.size());
  EXPECT_EQ(stats.cns_evaluated, live);
}

}  // namespace
}  // namespace kws::cn
