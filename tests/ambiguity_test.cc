#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/clean/cleaner.h"
#include "core/complete/tastier.h"
#include "core/refine/cluster_expand.h"
#include "core/refine/data_clouds.h"
#include "core/refine/facets.h"
#include "core/rewrite/keyword_pp.h"
#include "core/rewrite/related_queries.h"
#include "graph/data_graph.h"
#include "relational/dblp.h"
#include "relational/query_log.h"
#include "relational/shop.h"
#include "text/inverted_index.h"

namespace kws {
namespace {

// ---------------------------------------------------------------- clean

class CleanerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Slide 67's product vocabulary.
    index_.AddDocument(0, "apple ipad nano");
    index_.AddDocument(1, "apple ipod nano");
    index_.AddDocument(2, "apple iphone");
    index_.AddDocument(3, "lenovo thinkpad laptop");
    index_.AddDocument(4, "database systems keyword search");
  }
  text::InvertedIndex index_;
};

TEST_F(CleanerTest, CorrectsSingleTypos) {
  clean::QueryCleaner cleaner(index_);
  clean::CleanedQuery q = cleaner.Clean("appl ipd nan");
  ASSERT_EQ(q.tokens.size(), 3u);
  EXPECT_EQ(q.tokens[0], "apple");
  EXPECT_TRUE(q.tokens[1] == "ipad" || q.tokens[1] == "ipod");
  EXPECT_EQ(q.tokens[2], "nano");
  EXPECT_TRUE(q.has_results);
}

TEST_F(CleanerTest, XCleanGuaranteeNonEmptyResults) {
  clean::QueryCleaner cleaner(index_);
  // "datbase kyword" should clean to a combination that co-occurs
  // (database + keyword share doc 4); "apple database" never co-occurs.
  clean::CleanedQuery q = cleaner.Clean("datbase kyword");
  EXPECT_TRUE(q.has_results);
  EXPECT_EQ(q.tokens, (std::vector<std::string>{"database", "keyword"}));
}

TEST_F(CleanerTest, CleanWordsPassThrough) {
  clean::QueryCleaner cleaner(index_);
  clean::CleanedQuery q = cleaner.Clean("apple nano");
  EXPECT_EQ(q.tokens, (std::vector<std::string>{"apple", "nano"}));
  EXPECT_TRUE(q.has_results);
}

TEST_F(CleanerTest, SegmentationGroupsCooccurringTokens) {
  clean::QueryCleaner cleaner(index_);
  clean::CleanedQuery q = cleaner.Clean("keyword search");
  // "keyword search" is backed by doc 4 -> a single 2-token segment.
  ASSERT_EQ(q.segments.size(), 1u);
  EXPECT_EQ(q.segments[0], (std::pair<size_t, size_t>(0, 2)));
}

TEST_F(CleanerTest, ConfusionSetOrderedAndBounded) {
  clean::CleanerOptions opts;
  opts.max_candidates = 3;
  clean::QueryCleaner cleaner(index_, opts);
  auto cs = cleaner.ConfusionSet("ipd");
  ASSERT_FALSE(cs.empty());
  EXPECT_LE(cs.size(), 3u);
  for (size_t i = 1; i < cs.size(); ++i) {
    EXPECT_GE(cs[i - 1].second, cs[i].second);
  }
}

TEST_F(CleanerTest, EmptyQuery) {
  clean::QueryCleaner cleaner(index_);
  EXPECT_TRUE(cleaner.Clean("").tokens.empty());
}

// ------------------------------------------------------------- complete

class TastierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // author(srivastava) <- writes -> paper(sigmod optimization)
    a_ = g_.AddNode("author", "srivastava");
    p_ = g_.AddNode("paper", "sigmod query optimization");
    w_ = g_.AddNode("writes", "");
    o_ = g_.AddNode("paper2", "sigact theory");
    g_.AddEdge(w_, a_, 1, 1);
    g_.AddEdge(w_, p_, 1, 1);
    g_.BuildKeywordIndex();
  }
  graph::DataGraph g_;
  graph::NodeId a_, p_, w_, o_;
};

TEST_F(TastierTest, CompletesPrefixes) {
  complete::TastierIndex index(g_, 0);
  auto completions = index.Complete("sig", 10);
  EXPECT_EQ(completions,
            (std::vector<std::string>{"sigact", "sigmod"}));
}

TEST_F(TastierTest, DeltaZeroRequiresSameNode) {
  complete::TastierIndex index(g_, 0);
  // No single node contains both srivasta* and sig*.
  EXPECT_TRUE(index.Candidates({"srivasta", "sig"}).empty());
  // But one node contains both "sigmod" and "optimization" prefixes.
  auto c = index.Candidates({"sigmod", "optim"});
  EXPECT_EQ(c, (std::vector<graph::NodeId>{p_}));
}

TEST_F(TastierTest, DeltaOneReachesNeighbors) {
  complete::TastierIndex index(g_, 1);
  // The writes node reaches both the author and the paper in one step —
  // the slide 72/73 scenario {srivasta, sig}.
  auto c = index.Candidates({"srivasta", "sig"});
  ASSERT_FALSE(c.empty());
  EXPECT_TRUE(std::find(c.begin(), c.end(), w_) != c.end());
}

TEST_F(TastierTest, UnknownPrefixYieldsNothing) {
  complete::TastierIndex index(g_, 1);
  EXPECT_TRUE(index.Candidates({"zzz", "sig"}).empty());
}

TEST_F(TastierTest, FuzzyToleratesTypoInLastPrefix) {
  complete::TastierIndex index(g_, 1);
  // "sog" is one edit from prefix "sig".
  auto exact = index.Candidates({"srivasta", "sog"});
  EXPECT_TRUE(exact.empty());
  auto fuzzy = index.FuzzyCandidates({"srivasta", "sog"}, 1);
  EXPECT_FALSE(fuzzy.empty());
}

TEST_F(TastierTest, StatsShowFiltering) {
  complete::TastierIndex index(g_, 1);
  complete::TypeAheadStats stats;
  index.Candidates({"srivasta", "sig"}, &stats);
  EXPECT_EQ(stats.range_lookups, 2u);
  EXPECT_GE(stats.candidates_before_filter, stats.candidates_after_filter);
}

// --------------------------------------------------------------- refine

class DataCloudsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.AddDocument(0, "xml keyword search engines");
    index_.AddDocument(1, "xml xpath processing");
    index_.AddDocument(2, "xml keyword ranking");
    index_.AddDocument(3, "relational database theory");
  }
  text::InvertedIndex index_;
};

TEST_F(DataCloudsTest, SuggestsCoOccurringTerms) {
  auto terms = refine::SuggestTerms(index_, "xml",
                                    refine::TermRanking::kPopularity, 3);
  ASSERT_FALSE(terms.empty());
  // "keyword" appears in 2 of the 3 xml docs -> top suggestion.
  EXPECT_EQ(terms[0].term, "keyword");
  for (const auto& t : terms) {
    EXPECT_NE(t.term, "xml");  // query terms excluded
  }
}

TEST_F(DataCloudsTest, RelevanceRankingPenalizesCommonTerms) {
  auto pop = refine::SuggestTerms(index_, "keyword",
                                  refine::TermRanking::kPopularity, 10);
  auto rel = refine::SuggestTerms(index_, "keyword",
                                  refine::TermRanking::kRelevance, 10);
  EXPECT_FALSE(pop.empty());
  EXPECT_FALSE(rel.empty());
  // Both must suggest xml (co-occurs in both keyword docs).
  auto has = [](const std::vector<refine::SuggestedTerm>& v,
                const std::string& t) {
    for (const auto& s : v) {
      if (s.term == t) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(pop, "xml"));
  EXPECT_TRUE(has(rel, "xml"));
}

// Brute-force Data Clouds reference: weigh every vocabulary term over
// the conjunctive result docs (doc order, the same summation order as
// the library), drop query terms and zero weights, sort by (weight
// desc, term asc), take k.
std::vector<refine::SuggestedTerm> ReferenceSuggest(
    const text::InvertedIndex& index, const std::string& query,
    refine::TermRanking ranking, size_t k) {
  std::vector<text::ScoredDoc> results =
      index.SearchConjunctive(query, index.num_docs());
  std::sort(results.begin(), results.end(),
            [](const text::ScoredDoc& a, const text::ScoredDoc& b) {
              return a.doc < b.doc;
            });
  const std::vector<std::string> query_terms =
      index.tokenizer().Tokenize(query);
  std::vector<refine::SuggestedTerm> all;
  for (const std::string& term : index.Vocabulary()) {
    if (std::find(query_terms.begin(), query_terms.end(), term) !=
        query_terms.end()) {
      continue;
    }
    double w = 0;
    for (const text::ScoredDoc& r : results) {
      for (const text::Posting& p : index.GetPostings(term)) {
        if (p.doc != r.doc) continue;
        w += ranking == refine::TermRanking::kPopularity
                 ? 1
                 : r.score * p.tf * index.Idf(term);
      }
    }
    if (w > 0) all.push_back(refine::SuggestedTerm{term, w});
  }
  std::sort(all.begin(), all.end(),
            [](const refine::SuggestedTerm& a, const refine::SuggestedTerm& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.term < b.term;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(DataCloudsOracleTest, SuggestTermsMatchesSortedReferenceUnderTies) {
  // "alpha"/"beta" and "xpath"/"processing" always co-occur, so they tie
  // under both rankings; several popularity counts tie too.
  text::InvertedIndex index;
  index.AddDocument(0, "xml keyword search engines alpha beta");
  index.AddDocument(1, "xml xpath processing");
  index.AddDocument(2, "xml keyword ranking alpha beta");
  index.AddDocument(3, "relational database theory");
  index.AddDocument(4, "xml xpath processing engines");
  index.AddDocument(5, "keyword ranking theory");
  const size_t all = index.Vocabulary().size();
  size_t ties = 0;
  for (const refine::TermRanking ranking :
       {refine::TermRanking::kPopularity, refine::TermRanking::kRelevance}) {
    for (const char* query : {"xml", "keyword", "xml keyword", "absent"}) {
      for (const size_t k : {size_t{1}, size_t{3}, all}) {
        const auto got = refine::SuggestTerms(index, query, ranking, k);
        const auto want = ReferenceSuggest(index, query, ranking, k);
        ASSERT_EQ(got.size(), want.size()) << query << " k=" << k;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].term, want[i].term)
              << query << " k=" << k << " rank " << i;
          EXPECT_EQ(got[i].score, want[i].score);
          ties += i > 0 && want[i].score == want[i - 1].score;
        }
      }
    }
  }
  EXPECT_GT(ties, 0u) << "the index must exercise tied weights";
}

/// FrequentCoOccurringTerms must return the naive popularity ranking
/// term for term, ties included.
void ExpectSameSuggestions(const text::InvertedIndex& index,
                           const std::string& query, size_t k) {
  const auto naive =
      refine::SuggestTerms(index, query, refine::TermRanking::kPopularity, k);
  uint64_t scanned = 0;
  const auto fast = refine::FrequentCoOccurringTerms(index, query, k, &scanned);
  ASSERT_EQ(naive.size(), fast.size()) << query << " k=" << k;
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive[i].term, fast[i].term) << query << " k=" << k
                                           << " rank " << i;
    EXPECT_EQ(naive[i].score, fast[i].score);
  }
  if (!naive.empty()) {
    EXPECT_GT(scanned, 0u);
  }
}

TEST_F(DataCloudsTest, FrequentCoOccurringMatchesNaive) {
  for (const size_t k : {1, 2, 4, 10}) ExpectSameSuggestions(index_, "xml", k);
}

TEST(FrequentCoOccurringTest, WeightTieGoesToTheSmallerTermNotTheHigherDf) {
  // Against "query" (docs 0-1), "zeta" (df 4) and "alpha" (df 1) both
  // co-occur once. The df-descending scan meets "zeta" first; "alpha"
  // ranks above it by term, so a tie on the df bound must not stop the
  // scan before "alpha".
  text::InvertedIndex index;
  index.AddDocument(0, "query alpha");
  index.AddDocument(1, "query zeta");
  index.AddDocument(2, "zeta");
  index.AddDocument(3, "zeta");
  index.AddDocument(4, "zeta");
  const auto top1 = refine::FrequentCoOccurringTerms(index, "query", 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].term, "alpha");
  for (const size_t k : {1, 2, 3}) ExpectSameSuggestions(index, "query", k);
}

TEST(FrequentCoOccurringTest, StillStopsBelowTheWorstRetainedWeight) {
  // k = 1 retains "common" (weight 3); every other candidate has df 1,
  // so the scan stops at the first of them without weighing any.
  text::InvertedIndex index;
  index.AddDocument(0, "query common rare0");
  index.AddDocument(1, "query common rare1");
  index.AddDocument(2, "query common rare2");
  uint64_t scanned_all = 0, scanned_top1 = 0;
  refine::FrequentCoOccurringTerms(index, "query", 10, &scanned_all);
  const auto top1 =
      refine::FrequentCoOccurringTerms(index, "query", 1, &scanned_top1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].term, "common");
  EXPECT_EQ(scanned_top1, 3u);  // the postings of "common" only
  EXPECT_LT(scanned_top1, scanned_all);
}

TEST(ClusterExpandTest, FindsDiscriminatingTerms) {
  text::InvertedIndex index;
  // Two senses of "java": the language and the island (slide 81).
  index.AddDocument(0, "java language compiler virtual machine");
  index.AddDocument(1, "java language object oriented sun");
  index.AddDocument(2, "java island indonesia provinces");
  index.AddDocument(3, "java island volcano travel");
  auto expanded = refine::ExpandQueriesForClusters(
      index, "java", {{0, 1}, {2, 3}});
  ASSERT_EQ(expanded.size(), 2u);
  // Each expanded query must separate its cluster perfectly: "language"
  // and "island" are perfect discriminators.
  EXPECT_DOUBLE_EQ(expanded[0].f_measure, 1.0);
  EXPECT_DOUBLE_EQ(expanded[1].f_measure, 1.0);
  EXPECT_TRUE(std::find(expanded[0].terms.begin(), expanded[0].terms.end(),
                        "language") != expanded[0].terms.end());
  EXPECT_TRUE(std::find(expanded[1].terms.begin(), expanded[1].terms.end(),
                        "island") != expanded[1].terms.end());
}

TEST(ClusterExpandTest, StopsWhenNoImprovement) {
  text::InvertedIndex index;
  index.AddDocument(0, "same words here");
  index.AddDocument(1, "same words here");
  auto expanded =
      refine::ExpandQueriesForClusters(index, "same", {{0}, {1}});
  ASSERT_EQ(expanded.size(), 2u);
  // Identical docs cannot be separated: F stays at the base level and no
  // phantom terms get added beyond the original query.
  EXPECT_EQ(expanded[0].terms.size(), 1u);
}

class FacetsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    shop_ = relational::MakeShopDatabase({.seed = 4, .num_products = 400});
    log_ = relational::MakeQueryLog(*shop_.db, shop_.product,
                                    {.seed = 5, .num_queries = 400});
    for (relational::RowId r = 0;
         r < shop_.db->table(shop_.product).num_rows(); ++r) {
      all_rows_.push_back(r);
    }
  }
  relational::ShopDatabase shop_;
  relational::QueryLog log_;
  std::vector<relational::RowId> all_rows_;
};

TEST_F(FacetsTest, ConditionsPartitionRows) {
  refine::FacetedNavigator nav(*shop_.db, shop_.product, log_);
  const relational::Table& table = shop_.db->table(shop_.product);
  // brand column (2) is categorical.
  auto conds = nav.ConditionsFor(2, all_rows_, {});
  ASSERT_FALSE(conds.empty());
  for (const auto& c : conds) {
    EXPECT_TRUE(c.equals.has_value());
  }
  // price column (5) is numeric: buckets must tile the number line.
  auto buckets = nav.ConditionsFor(5, all_rows_, {});
  ASSERT_GE(buckets.size(), 2u);
  size_t covered = 0;
  for (relational::RowId r : all_rows_) {
    size_t hits = 0;
    for (const auto& b : buckets) hits += b.Matches(table, r);
    EXPECT_EQ(hits, 1u) << "row must fall in exactly one bucket";
    covered += hits;
  }
  EXPECT_EQ(covered, all_rows_.size());
}

TEST_F(FacetsTest, GreedyBeatsPathologicalFixedOrder) {
  refine::FacetedNavigator nav(*shop_.db, shop_.product, log_);
  refine::FacetTreeOptions opts;
  opts.max_depth = 2;
  refine::FacetNode greedy = nav.BuildGreedy(all_rows_, opts);
  // Fixed order starting with the (useless) name column.
  refine::FacetNode fixed =
      nav.BuildFixedOrder(all_rows_, {1, 7, 3}, opts);
  EXPECT_LE(nav.ExpectedCost(greedy), nav.ExpectedCost(fixed));
}

TEST_F(FacetsTest, CostOfLeafIsRowCount) {
  refine::FacetedNavigator nav(*shop_.db, shop_.product, log_);
  refine::FacetNode leaf;
  leaf.rows = {1, 2, 3};
  EXPECT_DOUBLE_EQ(nav.ExpectedCost(leaf), 3.0);
}

TEST_F(FacetsTest, TreeChildrenNestProperly) {
  refine::FacetedNavigator nav(*shop_.db, shop_.product, log_);
  refine::FacetTreeOptions opts;
  opts.max_depth = 2;
  refine::FacetNode root = nav.BuildGreedy(all_rows_, opts);
  ASSERT_FALSE(root.children.empty());
  const relational::Table& table = shop_.db->table(shop_.product);
  for (const auto& child : root.children) {
    ASSERT_TRUE(child.condition.has_value());
    for (relational::RowId r : child.rows) {
      EXPECT_TRUE(child.condition->Matches(table, r));
    }
    EXPECT_LE(child.rows.size(), root.rows.size());
  }
}

// -------------------------------------------------------------- rewrite

class KeywordPpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    shop_ = relational::MakeShopDatabase({.seed = 6, .num_products = 600});
    log_ = relational::MakeQueryLog(*shop_.db, shop_.product,
                                    {.seed = 7, .num_queries = 200});
  }
  relational::ShopDatabase shop_;
  relational::QueryLog log_;
};

TEST_F(KeywordPpTest, MapsSynonymToBrandEquality) {
  rewrite::KeywordPlusPlus kpp(*shop_.db, shop_.product, log_);
  // "ibm" appears only in lenovo descriptions (slide 95).
  rewrite::MappedPredicate p = kpp.MapKeyword("ibm");
  EXPECT_EQ(p.kind, rewrite::MappedPredicate::Kind::kEquals);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_EQ(p.value->AsText(), "lenovo");
}

TEST_F(KeywordPpTest, MapsSmallToOrderByScreenAsc) {
  rewrite::KeywordPlusPlus kpp(*shop_.db, shop_.product, log_);
  rewrite::MappedPredicate p = kpp.MapKeyword("small");
  EXPECT_EQ(p.kind, rewrite::MappedPredicate::Kind::kOrderAsc);
  // column 4 is screen.
  EXPECT_EQ(p.column, 4u);
}

TEST_F(KeywordPpTest, UnknownWordFallsBackToContains) {
  rewrite::KeywordPlusPlus kpp(*shop_.db, shop_.product, log_);
  rewrite::MappedPredicate p = kpp.MapKeyword("zzzunknown");
  EXPECT_EQ(p.kind, rewrite::MappedPredicate::Kind::kContains);
}

TEST_F(KeywordPpTest, TranslateProducesSql) {
  rewrite::KeywordPlusPlus kpp(*shop_.db, shop_.product, log_);
  rewrite::TranslatedQuery tq = kpp.Translate("small ibm laptop");
  EXPECT_FALSE(tq.predicates.empty());
  EXPECT_NE(tq.sql.find("SELECT * FROM product"), std::string::npos);
  EXPECT_NE(tq.sql.find("ORDER BY screen ASC"), std::string::npos);
  EXPECT_NE(tq.sql.find("brand = 'lenovo'"), std::string::npos);
}

TEST(RelatedByClicksTest, FindsSynonymQueries) {
  std::vector<rewrite::ClickRecord> log = {
      {"indiana jones 4", {1, 2, 3}},
      {"indiana jones iv", {1, 2, 4}},
      {"star wars", {9, 10}},
      {"indiana jones 4", {3, 5}},
  };
  auto related = rewrite::RelatedByClicks(log, "indiana jones 4");
  ASSERT_FALSE(related.empty());
  EXPECT_EQ(related[0].query, "indiana jones iv");
  for (const auto& r : related) {
    EXPECT_NE(r.query, "star wars");
  }
}

TEST(RelatedByClicksTest, UnknownQueryGivesNothing) {
  std::vector<rewrite::ClickRecord> log = {{"a", {1}}};
  EXPECT_TRUE(rewrite::RelatedByClicks(log, "b").empty());
}

TEST(RelatedValuesTest, HondaRelatesToToyota) {
  relational::ShopDatabase shop =
      relational::MakeShopDatabase({.seed = 8, .num_products = 600});
  // brand column = 2. honda and toyota are both cars with similar price
  // profiles; laptop brands profile differently.
  auto related = rewrite::RelatedValues(*shop.db, shop.product, 2,
                                        relational::Value::Text("honda"), 3);
  ASSERT_FALSE(related.empty());
  EXPECT_EQ(related[0].first.AsText(), "toyota");
}

}  // namespace
}  // namespace kws

namespace kws {
namespace {

TEST_F(FacetsTest, FacetorModelPrefersNarrowingFacets) {
  refine::FacetedNavigator nav(*shop_.db, shop_.product, log_);
  refine::FacetTreeOptions opts;
  opts.max_depth = 2;
  opts.cost_model = refine::FacetCostModel::kFacetor;
  refine::FacetNode greedy = nav.BuildGreedy(all_rows_, opts);
  ASSERT_FALSE(greedy.children.empty());
  // Under FACeTOR probabilities the greedy tree still beats a
  // pathological fixed order, and a leaf costs its row count.
  refine::FacetNode fixed = nav.BuildFixedOrder(all_rows_, {1, 7, 6}, opts);
  EXPECT_LE(nav.ExpectedCost(greedy, opts), nav.ExpectedCost(fixed, opts));
  refine::FacetNode leaf;
  leaf.rows = {1, 2};
  EXPECT_DOUBLE_EQ(nav.ExpectedCost(leaf, opts), 2.0);
}

TEST_F(FacetsTest, FacetorShowMoreChargesPaging) {
  refine::FacetedNavigator nav(*shop_.db, shop_.product, log_);
  refine::FacetTreeOptions opts;
  opts.max_depth = 1;
  opts.cost_model = refine::FacetCostModel::kFacetor;
  opts.max_conditions = 8;
  refine::FacetNode tree = nav.BuildGreedy(all_rows_, opts);
  if (tree.children.size() > 2) {
    refine::FacetTreeOptions small_pages = opts;
    small_pages.facetor_page_size = 1;
    refine::FacetTreeOptions big_pages = opts;
    big_pages.facetor_page_size = 100;
    EXPECT_GT(nav.ExpectedCost(tree, small_pages),
              nav.ExpectedCost(tree, big_pages));
  }
}

}  // namespace
}  // namespace kws
