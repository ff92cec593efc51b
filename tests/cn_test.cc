#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/cn/candidate_network.h"
#include "core/cn/execute.h"
#include "core/cn/search.h"
#include "core/cn/spark.h"
#include "core/cn/tuple_sets.h"
#include "relational/database.h"
#include "relational/dblp.h"

namespace kws::cn {
namespace {

using relational::Database;
using relational::Row;
using relational::TableSchema;
using relational::Value;
using relational::ValueType;

/// The tutorial's running example: author -- writes -- paper, with
/// hand-picked rows so expected results are known.
///
///   author: (0 widom), (1 john xml), (2 mark)
///   paper:  (0 "xml keyword search"), (1 "join processing"),
///           (2 "widom systems")
///   writes: widom->p0, john->p1, mark->p0, widom->p1
struct MiniDb {
  std::unique_ptr<Database> db;
  relational::TableId author, paper, writes;

  MiniDb() : db(std::make_unique<Database>()) {
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
    at.Append({Value::Int(1), Value::Text("john xml")}).value();
    at.Append({Value::Int(2), Value::Text("mark")}).value();
    auto& pt = db->table(paper);
    pt.Append({Value::Int(0), Value::Text("xml keyword search")}).value();
    pt.Append({Value::Int(1), Value::Text("join processing")}).value();
    pt.Append({Value::Int(2), Value::Text("widom systems")}).value();
    auto& wt = db->table(writes);
    wt.Append({Value::Int(0), Value::Int(0), Value::Int(0)}).value();
    wt.Append({Value::Int(1), Value::Int(1), Value::Int(1)}).value();
    wt.Append({Value::Int(2), Value::Int(2), Value::Int(0)}).value();
    wt.Append({Value::Int(3), Value::Int(0), Value::Int(1)}).value();

    EXPECT_TRUE(db->AddForeignKey("writes", "aid", "author", "aid").ok());
    EXPECT_TRUE(db->AddForeignKey("writes", "pid", "paper", "pid").ok());
    db->BuildTextIndexes();
  }
};

TEST(TupleSetsTest, ExactMasks) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  EXPECT_EQ(ts.full_mask(), 3u);
  EXPECT_EQ(ts.table_mask(mini.author), 3u);
  EXPECT_EQ(ts.table_mask(mini.paper), 3u);
  EXPECT_EQ(ts.table_mask(mini.writes), 0u);
  // author 0 matches exactly {widom}, author 1 exactly {xml}.
  EXPECT_EQ(ts.RowMask(mini.author, 0), 1u);
  EXPECT_EQ(ts.RowMask(mini.author, 1), 2u);
  EXPECT_EQ(ts.RowMask(mini.author, 2), 0u);
  EXPECT_EQ(ts.Get(mini.author, 1).size(), 1u);
  EXPECT_EQ(ts.Get(mini.author, 3).size(), 0u);
  EXPECT_TRUE(ts.Matches(mini.author, 2, 0));
  EXPECT_FALSE(ts.Matches(mini.author, 0, 0));
}

TEST(TupleSetsTest, ScoresPositiveAndSorted) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"xml"});
  const auto& rows = ts.Get(mini.paper, 1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].score, 0.0);
  EXPECT_EQ(ts.MaxScore(mini.paper, 1), rows[0].score);
  EXPECT_GT(ts.Idf(0), 0.0);
}

TEST(TupleSetsTest, TermFrequencies) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"xml", "widom"});
  EXPECT_EQ(ts.RowTf(mini.paper, 0, 0), 1u);
  EXPECT_EQ(ts.RowTf(mini.paper, 0, 1), 0u);
  EXPECT_EQ(ts.RowTf(mini.writes, 0, 0), 0u);
}

std::vector<KeywordMask> FullMasks(const Database& db, KeywordMask m,
                                   relational::TableId except) {
  std::vector<KeywordMask> masks(db.num_tables(), m);
  masks[except] = 0;
  return masks;
}

TEST(CnEnumTest, Slide28Networks) {
  MiniDb mini;
  // Both keywords can occur in author and paper, none in writes —
  // the exact setting of tutorial slide 28.
  auto masks = FullMasks(*mini.db, 3u, mini.writes);
  auto cns = EnumerateCandidateNetworks(*mini.db, masks, 3u,
                                        {.max_size = 5});
  ASSERT_FALSE(cns.empty());
  // Every CN is valid: full coverage, non-free necessary leaves.
  for (const auto& cn : cns) {
    EXPECT_EQ(cn.Coverage(), 3u);
    EXPECT_EQ(cn.edges.size(), cn.nodes.size() - 1);
  }
  // Expected members (slide 28): single-node A{both}, P{both};
  // A{k} - W - P{k'}; the size-5 "two authors one paper" and
  // "one author two papers" shapes.
  size_t size1 = 0, size3 = 0, size5 = 0;
  for (const auto& cn : cns) {
    if (cn.size() == 1) ++size1;
    if (cn.size() == 3) ++size3;
    if (cn.size() == 5) ++size5;
    EXPECT_NE(cn.size(), 2u);  // A-W or W-P alone can never be valid
  }
  EXPECT_EQ(size1, 2u);  // author{widom xml}, paper{widom xml}
  EXPECT_EQ(size3, 2u);  // author{widom}-W-paper{xml} and the swap
  EXPECT_GT(size5, 0u);
}

TEST(CnEnumTest, DuplicateFree) {
  MiniDb mini;
  auto masks = FullMasks(*mini.db, 3u, mini.writes);
  auto cns = EnumerateCandidateNetworks(*mini.db, masks, 3u,
                                        {.max_size = 5});
  std::set<std::string> keys;
  for (const auto& cn : cns) {
    EXPECT_TRUE(keys.insert(cn.CanonicalKey()).second)
        << "duplicate CN: " << cn.ToString(*mini.db, {"widom", "xml"});
  }
}

TEST(CnEnumTest, GrowsWithMaxSize) {
  MiniDb mini;
  auto masks = FullMasks(*mini.db, 3u, mini.writes);
  const size_t n3 =
      EnumerateCandidateNetworks(*mini.db, masks, 3u, {.max_size = 3}).size();
  const size_t n5 =
      EnumerateCandidateNetworks(*mini.db, masks, 3u, {.max_size = 5}).size();
  const size_t n7 =
      EnumerateCandidateNetworks(*mini.db, masks, 3u, {.max_size = 7}).size();
  EXPECT_LT(n3, n5);
  EXPECT_LT(n5, n7);
}

TEST(CnEnumTest, RespectsTableMasks) {
  MiniDb mini;
  // widom only in author, xml only in paper.
  std::vector<KeywordMask> masks(mini.db->num_tables(), 0);
  masks[mini.author] = 1u;
  masks[mini.paper] = 2u;
  auto cns = EnumerateCandidateNetworks(*mini.db, masks, 3u,
                                        {.max_size = 3});
  ASSERT_EQ(cns.size(), 1u);
  EXPECT_EQ(cns[0].size(), 3u);
  // The single CN is author{widom} - writes - paper{xml}.
  std::multiset<std::pair<relational::TableId, KeywordMask>> got;
  for (const CnNode& n : cns[0].nodes) got.emplace(n.table, n.mask);
  std::multiset<std::pair<relational::TableId, KeywordMask>> want = {
      {mini.author, 1u}, {mini.writes, 0u}, {mini.paper, 2u}};
  EXPECT_EQ(got, want);
}

TEST(CnEnumTest, CanonicalKeyInvariantUnderRelabeling) {
  MiniDb mini;
  // Build A{1} - W - P{2} with two different node orders.
  CandidateNetwork a;
  a.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  a.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  CandidateNetwork b;
  b.nodes = {{mini.paper, 2}, {mini.author, 1}, {mini.writes, 0}};
  b.edges = {{2, 0, 1, true}, {2, 1, 0, true}};
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  // Different mask assignment is a different CN.
  CandidateNetwork c = a;
  c.nodes[0].mask = 2;
  c.nodes[2].mask = 1;
  EXPECT_NE(a.CanonicalKey(), c.CanonicalKey());
}

TEST(ExecuteCnTest, JoinsExpectedTuples) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  // author{widom} - writes - paper{xml}
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  auto results = ExecuteCn(*mini.db, cn, ts);
  // widom wrote p0 ("xml keyword search") via w0. p0 matches exactly
  // {xml}. widom->p1 does not match. So exactly one result.
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].rows[0], 0u);  // author widom
  EXPECT_EQ(results[0].rows[2], 0u);  // paper xml keyword search
  EXPECT_GT(results[0].score, 0.0);
}

TEST(ExecuteCnTest, FixedRowsConstrainResults) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  std::vector<std::optional<relational::RowId>> fixed(3);
  fixed[0] = 0;  // widom
  fixed[2] = 0;  // the xml paper
  EXPECT_EQ(ExecuteCn(*mini.db, cn, ts, fixed).size(), 1u);
  fixed[2] = 1;  // "join processing" does not match {xml}
  EXPECT_TRUE(ExecuteCn(*mini.db, cn, ts, fixed).empty());
}

TEST(ExecuteCnTest, LimitCapsResults) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom"});
  // author{widom} - writes (writes rows are keyword-free): widom wrote
  // two papers, so the CN author{widom}-W has 2 results... but W leaf is
  // free; execute directly regardless (executor does not re-validate).
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}};
  cn.edges = {{1, 0, 0, true}};
  EXPECT_EQ(ExecuteCn(*mini.db, cn, ts).size(), 2u);
  EXPECT_EQ(ExecuteCn(*mini.db, cn, ts, {}, 1).size(), 1u);
}

TEST(ExecuteCnTest, ScoreBoundDominatesResults) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  const double bound = CnScoreBound(cn, ts);
  for (const auto& jt : ExecuteCn(*mini.db, cn, ts)) {
    EXPECT_LE(jt.score, bound + 1e-12);
  }
}

TEST(SearchTest, FindsWidomXmlConnection) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  std::vector<CandidateNetwork> cns;
  auto results = search.Search("widom xml", {.k = 10}, &cns);
  ASSERT_FALSE(results.empty());
  // Top results must include the author0-writes0-paper0 join.
  bool found = false;
  for (const auto& r : results) {
    std::set<std::pair<relational::TableId, relational::RowId>> tuples;
    for (const auto& t : r.tuples) tuples.emplace(t.table, t.row);
    if (tuples.count({mini.author, 0}) && tuples.count({mini.paper, 0})) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SearchTest, EmptyQueryGivesNoResults) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  EXPECT_TRUE(search.Search("", {.k = 5}, nullptr).empty());
  EXPECT_TRUE(search.Search("zzzzz", {.k = 5}, nullptr).empty());
}

/// Property: all three strategies return the same top-k score sequence.
class StrategyAgreementTest
    : public ::testing::TestWithParam<std::tuple<const char*, size_t>> {};

TEST_P(StrategyAgreementTest, SameTopKScores) {
  const std::string query = std::get<0>(GetParam());
  const size_t k = std::get<1>(GetParam());
  relational::DblpOptions opts;
  opts.num_authors = 80;
  opts.num_papers = 150;
  opts.num_conferences = 8;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  CnKeywordSearch search(*dblp.db);

  auto run = [&](Strategy s) {
    SearchOptions so;
    so.k = k;
    so.max_cn_size = 4;
    so.strategy = s;
    return search.Search(query, so, nullptr);
  };
  auto naive = run(Strategy::kNaive);
  auto sparse = run(Strategy::kSparse);
  auto pipeline = run(Strategy::kGlobalPipeline);
  ASSERT_EQ(naive.size(), sparse.size());
  ASSERT_EQ(naive.size(), pipeline.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(naive[i].score, sparse[i].score, 1e-9) << "rank " << i;
    EXPECT_NEAR(naive[i].score, pipeline[i].score, 1e-9) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyAgreementTest,
    ::testing::Combine(::testing::Values("keyword search", "database query",
                                         "james chen", "xml"),
                       ::testing::Values(1, 5, 20)));

TEST(SearchStatsTest, SparseEvaluatesFewerCnsThanNaive) {
  relational::DblpOptions opts;
  opts.num_authors = 100;
  opts.num_papers = 200;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  CnKeywordSearch search(*dblp.db);
  SearchStats naive_stats, sparse_stats;
  SearchOptions so;
  so.k = 5;
  so.max_cn_size = 4;
  so.strategy = Strategy::kNaive;
  search.Search("keyword search", so, nullptr, &naive_stats);
  so.strategy = Strategy::kSparse;
  search.Search("keyword search", so, nullptr, &sparse_stats);
  EXPECT_EQ(naive_stats.cns_enumerated, sparse_stats.cns_enumerated);
  EXPECT_LE(sparse_stats.cns_evaluated, naive_stats.cns_evaluated);
  EXPECT_LE(sparse_stats.results_materialized,
            naive_stats.results_materialized);
}

/// Garbage-filled stats handed to an early-returning Search must come
/// back fully reset: Search value-initializes `*stats` on entry, so no
/// exit path can leak a previous query's numbers.
SearchStats GarbageStats() {
  SearchStats s;
  s.cns_enumerated = 111;
  s.cns_evaluated = 222;
  s.results_materialized = 333;
  s.join_lookups = 444;
  s.candidates_verified = 555;
  s.deadline_hit = true;
  return s;
}

TEST(SearchStatsTest, EmptyQueryResetsReusedStats) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  SearchStats stats = GarbageStats();
  EXPECT_TRUE(search.Search("", {}, nullptr, &stats).empty());
  EXPECT_EQ(stats.cns_enumerated, 0u);
  EXPECT_EQ(stats.cns_evaluated, 0u);
  EXPECT_EQ(stats.results_materialized, 0u);
  EXPECT_EQ(stats.join_lookups, 0u);
  EXPECT_EQ(stats.candidates_verified, 0u);
  EXPECT_FALSE(stats.deadline_hit);
}

TEST(SearchStatsTest, NoMatchQueryResetsReusedStats) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  SearchStats stats = GarbageStats();
  EXPECT_TRUE(
      search.Search("zzzznothing qqqqnomatch", {}, nullptr, &stats).empty());
  EXPECT_EQ(stats.cns_evaluated, 0u);
  EXPECT_EQ(stats.results_materialized, 0u);
  EXPECT_FALSE(stats.deadline_hit);
}

TEST(SearchStatsTest, ExpiredDeadlineResetsStatsThenMarksTheHit) {
  MiniDb mini;
  CnKeywordSearch search(*mini.db);
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kSparse, Strategy::kGlobalPipeline}) {
    SearchStats stats = GarbageStats();
    SearchOptions so;
    so.strategy = strategy;
    so.deadline = Deadline::AfterMicros(0);
    search.Search("widom xml", so, nullptr, &stats);
    EXPECT_TRUE(stats.deadline_hit) << StrategyToString(strategy);
    // Everything else restarted from zero, so no counter can still carry
    // the garbage watermark.
    EXPECT_LT(stats.results_materialized, 333u) << StrategyToString(strategy);
    EXPECT_LT(stats.join_lookups, 444u) << StrategyToString(strategy);
    EXPECT_LT(stats.candidates_verified, 555u) << StrategyToString(strategy);
  }
}

/// Bit-identical ranked results: score, CN and tuples at every rank.
void ExpectSameResults(const std::vector<SearchResult>& got,
                       const std::vector<SearchResult>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
    EXPECT_EQ(got[i].cn_index, want[i].cn_index) << context << " rank " << i;
    EXPECT_EQ(got[i].tuples, want[i].tuples) << context << " rank " << i;
  }
}

/// Property: the SPARK algorithms return the naive reference's top-k
/// bit for bit — scores, CNs and tuples — under the SearchResultOrder
/// total order. (query, k).
class SparkAgreementTest
    : public ::testing::TestWithParam<std::tuple<const char*, size_t>> {};

TEST_P(SparkAgreementTest, SameTopKResults) {
  const auto [query, k] = GetParam();
  relational::DblpOptions opts;
  opts.num_authors = 60;
  opts.num_papers = 120;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  SparkSearch search(*dblp.db);
  auto run = [&](SparkAlgorithm a) {
    SparkOptions so;
    so.k = k;
    so.max_cn_size = 4;
    so.algorithm = a;
    return search.Search(query, so, nullptr);
  };
  const auto naive = run(SparkAlgorithm::kNaive);
  EXPECT_FALSE(naive.empty());
  for (const SparkAlgorithm a :
       {SparkAlgorithm::kSkylineSweep, SparkAlgorithm::kBlockPipeline}) {
    ExpectSameResults(run(a), naive, SparkAlgorithmToString(a));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparkAgreementTest,
    ::testing::Combine(::testing::Values("keyword search", "database",
                                         "james chen"),
                       ::testing::Values(size_t{1}, size_t{3}, size_t{10})));

TEST(SparkSearchTest, EqualBoundsOfLowerIndexCnsStillEnter) {
  // n unconnected tables whose every row is "xml": n single-node CNs and
  // one score for every result, so each queue item's bound ties the worst
  // retained result. A tie rejected on CN index must not end the sweep —
  // an equal-bound item of a lower-index CN may still follow — so every
  // algorithm returns the naive top-k, lowest CN index and rows first.
  for (size_t n = 3; n <= 6; ++n) {
    Database db;
    for (size_t t = 0; t < n; ++t) {
      TableSchema s;
      s.name = "t" + std::to_string(t);
      s.columns = {{"id", ValueType::kInt, false},
                   {"txt", ValueType::kText, true}};
      s.primary_key = 0;
      const relational::TableId id = db.CreateTable(s).value();
      for (int r = 0; r < 3; ++r) {
        db.table(id).Append({Value::Int(r), Value::Text("xml")}).value();
      }
    }
    db.BuildTextIndexes();
    SparkSearch search(db);
    for (const size_t k : {size_t{2}, size_t{4}}) {
      auto run = [&](SparkAlgorithm a) {
        SparkOptions so;
        so.k = k;
        so.algorithm = a;
        so.block_size = 1;
        return search.Search("xml", so, nullptr);
      };
      const auto naive = run(SparkAlgorithm::kNaive);
      ASSERT_EQ(naive.size(), k);
      for (const SparkAlgorithm a :
           {SparkAlgorithm::kSkylineSweep, SparkAlgorithm::kBlockPipeline}) {
        ExpectSameResults(run(a), naive,
                          std::string(SparkAlgorithmToString(a)) +
                              " n=" + std::to_string(n) +
                              " k=" + std::to_string(k));
      }
    }
  }
}

TEST(SparkSearchTest, ZeroKReturnsNothingAndEvaluatesNothing) {
  MiniDb mini;
  SparkSearch search(*mini.db);
  for (const SparkAlgorithm a :
       {SparkAlgorithm::kNaive, SparkAlgorithm::kSkylineSweep,
        SparkAlgorithm::kBlockPipeline}) {
    SparkOptions so;
    so.k = 0;
    so.algorithm = a;
    std::vector<CandidateNetwork> cns;
    SparkStats stats;
    EXPECT_TRUE(search.Search("widom xml", so, &cns, &stats).empty())
        << SparkAlgorithmToString(a);
    EXPECT_FALSE(cns.empty());
    EXPECT_EQ(stats.cns_enumerated, cns.size());
    EXPECT_EQ(stats.candidates_scored, 0u);
    EXPECT_EQ(stats.join_lookups, 0u);
  }
}

TEST(SparkScoreTest, VirtualDocumentSublinearity) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"xml"});
  // Two results: author{xml} alone (tf=1) vs a tree where xml appears in
  // author and paper (tf=2). The combined tree's score must be less than
  // the sum of the parts' (1+ln tf) contributions — that is the
  // non-monotonicity SPARK handles.
  CandidateNetwork single;
  single.nodes = {{mini.author, 1}};
  const double s1 = SparkScore(single, ts, {1});
  CandidateNetwork tree;
  tree.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 1}};
  tree.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  const double s3 = SparkScore(tree, ts, {1, 1, 0});
  // Virtual document: tf=2 -> (1+ln2)*idf / penalty(3).
  EXPECT_GT(s1, 0.0);
  EXPECT_GT(s3, 0.0);
  EXPECT_LT(s3, 2 * s1);  // dampened + size-penalized
}

TEST(SparkStatsTest, SweepScoresFewerCandidatesThanNaive) {
  relational::DblpOptions opts;
  opts.num_authors = 100;
  opts.num_papers = 200;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  SparkSearch search(*dblp.db);
  SparkStats naive_stats, sweep_stats;
  SparkOptions so;
  so.k = 5;
  so.max_cn_size = 4;
  so.algorithm = SparkAlgorithm::kNaive;
  search.Search("keyword search", so, nullptr, &naive_stats);
  so.algorithm = SparkAlgorithm::kSkylineSweep;
  search.Search("keyword search", so, nullptr, &sweep_stats);
  EXPECT_LT(sweep_stats.candidates_scored, naive_stats.candidates_scored);
}

}  // namespace
}  // namespace kws::cn

// ------------------------------------------------- semijoin reduction

#include "core/cn/semijoin.h"

namespace kws::cn {
namespace {

class SemiJoinOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemiJoinOracleTest, SameResultsAsPlainExecution) {
  relational::DblpOptions opts;
  opts.seed = GetParam();
  opts.num_authors = 30;
  opts.num_papers = 60;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  TupleSets ts(*dblp.db, {"keyword", "search"});
  auto cns = EnumerateCandidateNetworks(*dblp.db, ts.table_masks(),
                                        ts.full_mask(), {.max_size = 4});
  for (const auto& network : cns) {
    auto plain = ExecuteCn(*dblp.db, network, ts);
    SemiJoinStats sj;
    auto reduced = ExecuteCnSemiJoin(*dblp.db, network, ts, &sj);
    std::vector<std::vector<relational::RowId>> a, b;
    for (const auto& jt : plain) a.push_back(jt.rows);
    for (const auto& jt : reduced) b.push_back(jt.rows);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    EXPECT_LE(sj.rows_after, sj.rows_before);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SemiJoinOracleTest,
                         ::testing::Values(3, 5, 8));

TEST(SemiJoinTest, FullReducerKeepsOnlyParticipants) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "xml"});
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  auto sets = SemiJoinReduce(*mini.db, cn, ts);
  // The only result is widom(a0) - w0 - p0: after full reduction every
  // set holds exactly the participating row.
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], (std::vector<relational::RowId>{0}));
  EXPECT_EQ(sets[1], (std::vector<relational::RowId>{0}));
  EXPECT_EQ(sets[2], (std::vector<relational::RowId>{0}));
}

TEST(SemiJoinTest, EmptySetShortCircuits) {
  MiniDb mini;
  TupleSets ts(*mini.db, {"widom", "nonexistent"});
  CandidateNetwork cn;
  cn.nodes = {{mini.author, 1}, {mini.writes, 0}, {mini.paper, 2}};
  cn.edges = {{1, 0, 0, true}, {1, 2, 1, true}};
  EXPECT_TRUE(ExecuteCnSemiJoin(*mini.db, cn, ts).empty());
}

}  // namespace
}  // namespace kws::cn
