#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/analyze/aggregate.h"
#include "core/analyze/clustering.h"
#include "core/analyze/differentiation.h"
#include "core/analyze/ranking.h"
#include "core/analyze/snippet.h"
#include "core/lca/slca.h"
#include "core/steiner/banks.h"
#include "graph/pagerank.h"
#include "relational/database.h"
#include "relational/shop.h"
#include "text/inverted_index.h"
#include "xml/bibgen.h"
#include "xml/stats.h"
#include "xml_reference.h"

namespace kws::analyze {
namespace {

using xml::XmlNodeId;

TEST(RankingTest, OrdersByCompositeScore) {
  graph::DataGraph g;
  g.AddNode("a", "keyword search");
  g.AddNode("b", "keyword");
  g.AddNode("c", "");
  g.AddUndirectedEdge(0, 2, 1);
  g.AddUndirectedEdge(1, 2, 1);
  g.BuildKeywordIndex();
  auto trees = steiner::BanksSearch(g, {"keyword"}, {.k = 5});
  ASSERT_GE(trees.size(), 2u);
  auto pr = graph::PageRank(g);
  auto ranked = RankAnswers(g, trees, {"keyword", "search"}, pr);
  ASSERT_EQ(ranked.size(), trees.size());
  // Node a matches both query terms: it must rank first.
  EXPECT_EQ(ranked[0].tree.root, 0u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].total, ranked[i].total);
  }
  // The answer rooted at b (matching only "keyword") has lower content
  // than the top answer.
  for (const RankedAnswer& ra : ranked) {
    if (ra.tree.root == 1 && ra.tree.nodes.size() == 1) {
      EXPECT_GT(ranked[0].content, ra.content);
    }
  }
}

class SnippetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xml::MakeBibDocument({.seed = 21, .num_venues = 3,
                                 .papers_per_venue = 8});
    stats_ = xml::ComputePathStatistics(doc_.tree);
  }
  xml::BibDocument doc_;
  xml::PathStatistics stats_;
};

TEST_F(SnippetTest, BoundedAndDocumentOrdered) {
  const XmlNodeId venue = doc_.tree.children(0)[0];
  SnippetOptions opts;
  opts.max_items = 4;
  auto items = GenerateSnippet(doc_.tree, stats_, venue,
                               {doc_.vocabulary[0]}, opts);
  EXPECT_LE(items.size(), 4u);
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1].node, items[i].node);
  }
}

TEST_F(SnippetTest, ContainsKeyAndKeywordWitness) {
  const XmlNodeId venue = doc_.tree.children(0)[0];
  auto items = GenerateSnippet(doc_.tree, stats_, venue,
                               {doc_.vocabulary[0]});
  bool has_key = false, has_keyword = false;
  for (const SnippetItem& it : items) {
    has_key |= (it.reason == SnippetItem::Reason::kKey);
    if (it.reason == SnippetItem::Reason::kKeyword) {
      has_keyword = true;
      // The witness really contains the keyword.
      EXPECT_NE(doc_.tree.text(it.node).find(doc_.vocabulary[0]),
                std::string::npos);
    }
  }
  EXPECT_TRUE(has_key);
  EXPECT_TRUE(has_keyword);
  EXPECT_FALSE(SnippetToString(doc_.tree, items).empty());
}

TEST_F(SnippetTest, StatisticsOfAnotherTreeAbort) {
  const xml::BibDocument small =
      xml::MakeBibDocument({.seed = 21, .num_venues = 1,
                            .papers_per_venue = 1});
  const xml::PathStatistics small_stats =
      xml::ComputePathStatistics(small.tree);
  EXPECT_DEATH(GenerateSnippet(doc_.tree, small_stats, 0, {}),
               "different tree");
}

/// (num_venues, papers_per_venue) of the bibliography under test.
class SnippetOracleTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SnippetOracleTest, MatchesStringKeyedReferenceOnEveryNode) {
  const auto [venues, papers] = GetParam();
  const xml::BibDocument doc = xml::MakeBibDocument(
      {.seed = 42, .num_venues = venues, .papers_per_venue = papers});
  const xml::XmlTree& tree = doc.tree;
  const xml::PathStatistics stats = xml::ComputePathStatistics(tree);
  const std::vector<std::vector<std::string>> keyword_sets = {
      {},
      {doc.vocabulary[0]},
      {doc.vocabulary[0], doc.vocabulary[1]},
      {"zzzabsent"},
  };
  size_t compared = 0, dominant = 0;
  for (XmlNodeId n = 0; n < tree.size(); ++n) {
    for (const auto& keywords : keyword_sets) {
      for (size_t max_items : {1u, 4u, 6u, 20u}) {
        const auto got = GenerateSnippet(tree, stats, n, keywords,
                                         {.max_items = max_items});
        const auto want =
            xmlref::Snippet(tree, stats, n, keywords, max_items);
        ASSERT_EQ(got.size(), want.size())
            << "node " << n << " max_items " << max_items;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].node, want[i].node)
              << "node " << n << " item " << i << " max_items " << max_items;
          ASSERT_EQ(got[i].reason, want[i].reason)
              << "node " << n << " item " << i << " max_items " << max_items;
          dominant += got[i].reason == SnippetItem::Reason::kDominantFeature;
        }
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, tree.size() * keyword_sets.size() * 4);
  // The dominant-feature step is exercised, not vacuously skipped.
  EXPECT_GT(dominant, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BibSizes, SnippetOracleTest,
    ::testing::Values(std::make_pair(size_t{3}, size_t{2}),
                      std::make_pair(size_t{10}, size_t{5}),
                      std::make_pair(size_t{80}, size_t{10})));

TEST(DifferentiationTest, DodCountsDifferingTypes) {
  FeatureSet a = {{"year", "2000"}, {"title", "olap"}};
  FeatureSet b = {{"year", "2010"}, {"title", "olap"}};
  // year differs, title equal -> DoD 1 for the pair.
  EXPECT_DOUBLE_EQ(DegreeOfDifferentiation({a, b}), 1.0);
  FeatureSet c = {{"venue", "icde"}};
  // a-c: year (one side), title (one side), venue (one side) = 3;
  // b-c likewise 3; a-b = 1.
  EXPECT_DOUBLE_EQ(DegreeOfDifferentiation({a, b, c}), 7.0);
}

TEST(DifferentiationTest, SwapSearchBeatsOrMatchesBaseline) {
  // Slide 152: common features ("data", "query") summarize but do not
  // differentiate; the swap algorithm should pick the distinguishing
  // years/titles.
  std::vector<FeatureSet> results = {
      {{"title", "data"}, {"title", "query"}, {"year", "2000"},
       {"topic", "olap"}},
      {{"title", "data"}, {"title", "query"}, {"year", "2010"},
       {"topic", "cloud"}},
      {{"title", "data"}, {"title", "query"}, {"year", "2020"},
       {"topic", "ml"}},
  };
  DifferentiationOptions opts;
  opts.max_features = 2;
  auto baseline = SelectTopFeatures(results, opts);
  auto optimized = SelectDifferentiatingFeatures(results, opts);
  EXPECT_GE(DegreeOfDifferentiation(optimized),
            DegreeOfDifferentiation(baseline));
  // Every pair can be pushed to DoD 3 by picking *different feature
  // types* per result (presence-vs-absence also differentiates), so the
  // swap optimum here is 9; selecting year+topic everywhere gives only 6.
  EXPECT_DOUBLE_EQ(DegreeOfDifferentiation(optimized), 9.0);
}

TEST(DifferentiationTest, RespectsFeatureBound) {
  std::vector<FeatureSet> results = {
      {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}},
      {{"a", "9"}, {"b", "8"}, {"c", "7"}, {"d", "6"}},
  };
  DifferentiationOptions opts;
  opts.max_features = 2;
  for (const FeatureSet& fs : SelectDifferentiatingFeatures(results, opts)) {
    EXPECT_LE(fs.size(), 2u);
  }
}

class ClusteringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xml::MakeBibDocument({.seed = 31, .num_venues = 9,
                                 .papers_per_venue = 6});
  }
  xml::BibDocument doc_;
};

TEST_F(ClusteringTest, ContextClustersSplitByVenueType) {
  // Query the top title term: results are papers under conference,
  // journal and workshop contexts (slide 156).
  auto lists = lca::MatchLists(doc_.tree, {doc_.vocabulary[0]});
  ASSERT_FALSE(lists.empty());
  auto slca = lca::SlcaBruteForce(doc_.tree, lists);
  auto clusters = ClusterByContext(doc_.tree, slca, {doc_.vocabulary[0]});
  ASSERT_GE(clusters.size(), 2u);
  // Labels are distinct root contexts; members actually share the path.
  std::set<std::string> labels;
  for (const auto& c : clusters) {
    EXPECT_TRUE(labels.insert(c.label).second);
    for (XmlNodeId r : c.results) {
      EXPECT_EQ(doc_.tree.LabelPath(r), c.label);
    }
  }
  // Scores descend.
  for (size_t i = 1; i < clusters.size(); ++i) {
    EXPECT_GE(clusters[i - 1].score, clusters[i].score);
  }
}

TEST_F(ClusteringTest, RoleClustersDistinguishMatchRoles) {
  // A person name appears only in <author>; a venue word only in <name>:
  // querying an ambiguous term that matches title terms yields role
  // signatures per tag.
  auto lists = lca::MatchLists(doc_.tree, {"sigmod"});
  ASSERT_FALSE(lists.empty());
  auto slca = lca::SlcaBruteForce(doc_.tree, lists);
  auto clusters = ClusterByKeywordRoles(doc_.tree, slca, {"sigmod"});
  ASSERT_FALSE(clusters.empty());
  size_t total = 0;
  for (const auto& c : clusters) total += c.results.size();
  EXPECT_EQ(total, slca.size());
}

TEST(AggregateTest, ReproducesSlide16) {
  relational::ShopDatabase events = relational::MakeEventsDatabase(1, 60);
  // Interesting attributes: month (1) and state (2).
  auto groups = AggregateKeywordSearch(
      *events.db, events.product, {1, 2},
      {"motorcycle", "pool", "american", "food"});
  ASSERT_FALSE(groups.empty());
  // Expected covers: (dec, tx) and (*, mi) as on slide 16.
  bool dec_tx = false, star_mi = false;
  for (const auto& g : groups) {
    const bool month_bound = g.shared_values[0].has_value();
    const bool state_bound = g.shared_values[1].has_value();
    if (month_bound && state_bound &&
        g.shared_values[0]->AsText() == "dec" &&
        g.shared_values[1]->AsText() == "tx") {
      dec_tx = true;
    }
    if (!month_bound && state_bound &&
        g.shared_values[1]->AsText() == "mi") {
      star_mi = true;
    }
  }
  EXPECT_TRUE(dec_tx) << "missing the (dec, tx) group";
  EXPECT_TRUE(star_mi) << "missing the (*, mi) group";
  // Every reported group covers all four keywords.
  for (const auto& g : groups) {
    std::set<std::string> covered;
    for (relational::RowId r : g.rows) {
      for (const std::string kw :
           {"motorcycle", "pool", "american", "food"}) {
        auto rows = events.db->MatchRows(events.product, kw);
        if (std::find(rows.begin(), rows.end(), r) != rows.end()) {
          covered.insert(kw);
        }
      }
    }
    EXPECT_EQ(covered.size(), 4u)
        << g.ToString(*events.db, events.product, {1, 2});
  }
}

TEST(AggregateTest, MoreSpecificGroupsFirst) {
  relational::ShopDatabase events = relational::MakeEventsDatabase(1, 60);
  auto groups = AggregateKeywordSearch(*events.db, events.product, {1, 2},
                                       {"motorcycle", "pool"});
  for (size_t i = 1; i < groups.size(); ++i) {
    EXPECT_GE(groups[i - 1].specificity, groups[i].specificity);
  }
}

TEST(TopCellsTest, FindsRelevantCells) {
  relational::ShopDatabase shop =
      relational::MakeShopDatabase({.seed = 12, .num_products = 300});
  // Dimensions: brand (2), category (3). Query "powerful laptop"
  // (slide 166).
  auto cells = TopCells(*shop.db, shop.product, {2, 3},
                        "powerful laptop", 5, 3);
  ASSERT_FALSE(cells.empty());
  for (size_t i = 1; i < cells.size(); ++i) {
    EXPECT_GE(cells[i - 1].avg_relevance, cells[i].avg_relevance);
  }
  for (const auto& c : cells) {
    EXPECT_GE(c.support, 3u);
    EXPECT_EQ(c.rows.size(), c.support);
  }
  // A laptop-ish cell should beat the all-star cell: the top cell binds
  // at least one dimension.
  bool bound = false;
  for (const auto& d : cells[0].dims) bound |= d.has_value();
  EXPECT_TRUE(bound);
}

TEST(TopCellsTest, MinSupportFiltersSparseCells) {
  relational::ShopDatabase shop =
      relational::MakeShopDatabase({.seed = 12, .num_products = 50});
  auto strict = TopCells(*shop.db, shop.product, {2, 3}, "laptop", 20, 40);
  for (const auto& c : strict) EXPECT_GE(c.support, 40u);
}

TEST(TopCellsTest, ZeroKReturnsNothing) {
  relational::ShopDatabase shop =
      relational::MakeShopDatabase({.seed = 12, .num_products = 50});
  EXPECT_FALSE(TopCells(*shop.db, shop.product, {2, 3}, "laptop", 3).empty());
  EXPECT_TRUE(TopCells(*shop.db, shop.product, {2, 3}, "laptop", 0).empty());
}

/// item(id, brand, category, descr): three brands by two categories,
/// where rows repeat one of two descriptions, so many cells aggregate
/// identical relevance values and tie.
struct TieCube {
  std::unique_ptr<relational::Database> db =
      std::make_unique<relational::Database>();
  relational::TableId item = 0;

  TieCube() {
    relational::TableSchema s;
    s.name = "item";
    s.columns = {{"id", relational::ValueType::kInt, false},
                 {"brand", relational::ValueType::kText, true},
                 {"category", relational::ValueType::kText, true},
                 {"descr", relational::ValueType::kText, true}};
    s.primary_key = 0;
    item = db->CreateTable(s).value();
    const char* brands[] = {"core", "acme", "bolt"};
    const char* categories[] = {"phone", "laptop"};
    for (int i = 0; i < 12; ++i) {
      db->table(item)
          .Append({relational::Value::Int(i),
                   relational::Value::Text(brands[i % 3]),
                   relational::Value::Text(categories[i % 2]),
                   relational::Value::Text(i % 4 < 2 ? "fast laptop"
                                                     : "slow laptop case")})
          .value();
    }
    db->BuildTextIndexes();
  }
};

// Brute-force TopCells reference: group rows per dimension subset,
// average their relevance, sort by (relevance desc, present-dimension
// mask asc, dimension strings asc), take k.
std::vector<CubeCell> ReferenceTopCells(
    const relational::Database& db, relational::TableId table,
    const std::vector<relational::ColumnId>& dimensions,
    const std::string& query, size_t k, size_t min_support) {
  const relational::Table& t = db.table(table);
  const text::InvertedIndex& index = db.TextIndex(table);
  const std::vector<std::string> terms = index.tokenizer().Tokenize(query);
  const size_t nd = dimensions.size();
  struct Keyed {
    uint32_t mask;
    std::vector<std::string> key;
    CubeCell cell;
  };
  std::vector<Keyed> all;
  for (uint32_t mask = 0; mask < (1u << nd); ++mask) {
    std::map<std::vector<std::string>, std::vector<relational::RowId>> groups;
    for (relational::RowId r = 0; r < t.num_rows(); ++r) {
      std::vector<std::string> key;
      for (size_t d = 0; d < nd; ++d) {
        if ((mask >> d) & 1u) key.push_back(t.cell(r, dimensions[d]).ToString());
      }
      groups[key].push_back(r);
    }
    for (auto& [key, rows] : groups) {
      if (rows.size() < min_support) continue;
      double sum = 0;
      for (relational::RowId r : rows) sum += index.Score(r, terms);
      Keyed kc{mask, key, CubeCell{}};
      kc.cell.dims.resize(nd);
      for (size_t d = 0; d < nd; ++d) {
        if ((mask >> d) & 1u) kc.cell.dims[d] = t.cell(rows[0], dimensions[d]);
      }
      kc.cell.rows = rows;
      kc.cell.support = rows.size();
      kc.cell.avg_relevance = sum / static_cast<double>(rows.size());
      if (kc.cell.avg_relevance > 0) all.push_back(std::move(kc));
    }
  }
  std::sort(all.begin(), all.end(), [](const Keyed& a, const Keyed& b) {
    if (a.cell.avg_relevance != b.cell.avg_relevance) {
      return a.cell.avg_relevance > b.cell.avg_relevance;
    }
    if (a.mask != b.mask) return a.mask < b.mask;
    return a.key < b.key;
  });
  std::vector<CubeCell> out;
  for (size_t i = 0; i < all.size() && i < k; ++i) {
    out.push_back(std::move(all[i].cell));
  }
  return out;
}

TEST(TopCellsOracleTest, MatchesSortedReferenceUnderTies) {
  TieCube cube;
  const std::vector<relational::ColumnId> dims = {1, 2};
  size_t ties = 0;
  for (const char* query : {"fast", "laptop", "slow case", "absent"}) {
    for (const size_t min_support : {size_t{1}, size_t{2}}) {
      const size_t all = ReferenceTopCells(*cube.db, cube.item, dims, query,
                                           SIZE_MAX, min_support)
                             .size();
      for (const size_t k : {size_t{1}, size_t{3}, all}) {
        const auto got =
            TopCells(*cube.db, cube.item, dims, query, k, min_support);
        const auto want = ReferenceTopCells(*cube.db, cube.item, dims, query,
                                            k, min_support);
        ASSERT_EQ(got.size(), want.size()) << query << " k=" << k;
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].dims.size(), want[i].dims.size());
          for (size_t d = 0; d < want[i].dims.size(); ++d) {
            ASSERT_EQ(got[i].dims[d].has_value(), want[i].dims[d].has_value())
                << query << " k=" << k << " rank " << i;
            if (want[i].dims[d].has_value()) {
              EXPECT_EQ(got[i].dims[d]->ToString(),
                        want[i].dims[d]->ToString());
            }
          }
          EXPECT_EQ(got[i].rows, want[i].rows);
          EXPECT_EQ(got[i].support, want[i].support);
          EXPECT_EQ(got[i].avg_relevance, want[i].avg_relevance);
          ties += i > 0 && want[i].avg_relevance == want[i - 1].avg_relevance;
        }
      }
    }
  }
  EXPECT_GT(ties, 0u) << "the cube must exercise tied cells";
}

}  // namespace
}  // namespace kws::analyze

namespace kws::analyze {
namespace {

TEST(DifferentiationTest, RenderComparisonTable) {
  std::vector<FeatureSet> selection = {
      {{"conf:year", "2000"}, {"paper:title", "olap"}},
      {{"conf:year", "2010"}, {"paper:title", "cloud"},
       {"paper:title", "search"}},
  };
  const std::string table =
      RenderComparisonTable(selection, {"ICDE 2000", "ICDE 2010"});
  EXPECT_NE(table.find("feature | ICDE 2000 | ICDE 2010"),
            std::string::npos);
  EXPECT_NE(table.find("conf:year | 2000 | 2010"), std::string::npos);
  EXPECT_NE(table.find("paper:title | olap | cloud, search"),
            std::string::npos);
  // Absent values render as "-".
  std::vector<FeatureSet> sparse = {{{"a", "1"}}, {{"b", "2"}}};
  const std::string t2 = RenderComparisonTable(sparse, {});
  EXPECT_NE(t2.find("a | 1 | -"), std::string::npos);
  EXPECT_NE(t2.find("b | - | 2"), std::string::npos);
}

}  // namespace
}  // namespace kws::analyze

namespace kws::analyze {
namespace {

TEST(DifferentiationTest, StrongLocalOptimalBeatsOrMatchesWeak) {
  std::vector<FeatureSet> results = {
      {{"t", "data"}, {"t", "query"}, {"y", "2000"}, {"v", "icde"}},
      {{"t", "data"}, {"t", "query"}, {"y", "2010"}, {"v", "vldb"}},
      {{"t", "data"}, {"t", "mining"}, {"y", "2020"}, {"v", "icde"}},
      {{"t", "query"}, {"y", "2000"}, {"v", "kdd"}},
  };
  for (size_t bound : {1, 2, 3}) {
    DifferentiationOptions opts;
    opts.max_features = bound;
    const double weak = DegreeOfDifferentiation(
        SelectDifferentiatingFeatures(results, opts));
    auto strong_sel = SelectStrongLocalOptimal(results, opts);
    const double strong = DegreeOfDifferentiation(strong_sel);
    EXPECT_GE(strong, weak) << "bound " << bound;
    for (const FeatureSet& fs : strong_sel) {
      EXPECT_LE(fs.size(), bound);
    }
  }
}

}  // namespace
}  // namespace kws::analyze

namespace kws::analyze {
namespace {

/// (num_venues, papers_per_venue) of the bibliography under test.
class ContextClusterOracleTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(ContextClusterOracleTest, MatchesTreeWalkReferenceBitForBit) {
  const auto [venues, papers] = GetParam();
  const xml::BibDocument doc = xml::MakeBibDocument(
      {.seed = 42, .num_venues = venues, .papers_per_venue = papers});
  const xml::XmlTree& tree = doc.tree;
  const xml::PathStatistics stats = xml::ComputePathStatistics(tree);
  const double avg_depth = xmlref::AverageDepth(tree);
  EXPECT_EQ(xmlref::Bits(stats.avg_depth), xmlref::Bits(avg_depth));
  const std::vector<std::string>& v = doc.vocabulary;
  const std::vector<std::vector<std::string>> keyword_sets = {
      {}, {v[0]}, {v[0], v[1]}, {v[3], v[7]}, {v[2], v[0], v[5]},
      {"zzzabsent"}, {v[0], "zzzabsent"}};
  std::vector<XmlNodeId> every(tree.size());
  for (XmlNodeId n = 0; n < tree.size(); ++n) every[n] = n;
  size_t clusters = 0;
  for (const auto& keywords : keyword_sets) {
    for (XmlNodeId n : every) {
      ASSERT_EQ(xmlref::Bits(XBridgeResultScore(tree, n, keywords, avg_depth)),
                xmlref::Bits(xmlref::XBridgeResultScore(tree, n, keywords,
                                                        avg_depth)))
          << "node " << n;
    }
    // Every node at once, and the keywords' SLCA answer when there is one.
    std::vector<std::vector<XmlNodeId>> result_sets = {every};
    const auto lists = lca::MatchLists(tree, keywords);
    if (!lists.empty()) result_sets.push_back(lca::SlcaBruteForce(tree, lists));
    for (const std::vector<XmlNodeId>& results : result_sets) {
      const auto want = xmlref::ClusterByContext(tree, results, keywords);
      const std::string context = "keywords " +
                                  std::to_string(keywords.size()) +
                                  " results " + std::to_string(results.size());
      // The statistics form, and the form that derives them per call.
      xmlref::ExpectSameClusters(
          ClusterByContext(tree, stats, results, keywords), want, context);
      xmlref::ExpectSameClusters(ClusterByContext(tree, results, keywords),
                                 want, context + " (no statistics)");
      clusters += want.size();
    }
  }
  EXPECT_GT(clusters, keyword_sets.size());
}

INSTANTIATE_TEST_SUITE_P(
    BibSizes, ContextClusterOracleTest,
    ::testing::Values(std::make_pair(size_t{10}, size_t{5}),
                      std::make_pair(size_t{80}, size_t{10})));

TEST(ClusterSplitTest, SplitClusterByContextRespectsBound) {
  xml::BibDocument doc = xml::MakeBibDocument(
      {.seed = 41, .num_venues = 9, .papers_per_venue = 6});
  auto lists = lca::MatchLists(doc.tree, {doc.vocabulary[0]});
  ASSERT_FALSE(lists.empty());
  auto slca = lca::SlcaBruteForce(doc.tree, lists);
  auto roles = ClusterByKeywordRoles(doc.tree, slca, {doc.vocabulary[0]});
  ASSERT_FALSE(roles.empty());
  // Unbounded: contexts separate conference/journal/workshop titles.
  auto fine = SplitClusterByContext(doc.tree, roles[0],
                                    {doc.vocabulary[0]}, 100);
  EXPECT_GE(fine.size(), 2u);
  size_t total = 0;
  for (const auto& c : fine) total += c.results.size();
  EXPECT_EQ(total, roles[0].results.size());
  // Bounded: merging preserves the result multiset.
  auto coarse = SplitClusterByContext(doc.tree, roles[0],
                                      {doc.vocabulary[0]}, 2);
  EXPECT_LE(coarse.size(), 2u);
  size_t total2 = 0;
  for (const auto& c : coarse) total2 += c.results.size();
  EXPECT_EQ(total2, roles[0].results.size());
  // Zero bound: empty output.
  EXPECT_TRUE(SplitClusterByContext(doc.tree, roles[0],
                                    {doc.vocabulary[0]}, 0)
                  .empty());
}

}  // namespace
}  // namespace kws::analyze
