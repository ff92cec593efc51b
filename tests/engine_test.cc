#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/engine.h"
#include "relational/dblp.h"

namespace kws::engine {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    relational::DblpOptions opts;
    opts.num_authors = 60;
    opts.num_papers = 120;
    opts.num_conferences = 8;
    dblp_ = new relational::DblpDatabase(MakeDblpDatabase(opts));
    engine_ = new KeywordSearchEngine(*dblp_->db);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete dblp_;
    engine_ = nullptr;
    dblp_ = nullptr;
  }
  static relational::DblpDatabase* dblp_;
  static KeywordSearchEngine* engine_;
};

relational::DblpDatabase* EngineTest::dblp_ = nullptr;
KeywordSearchEngine* EngineTest::engine_ = nullptr;

TEST_F(EngineTest, EndToEndCnSearch) {
  EngineResponse r = engine_->Search("keyword search");
  EXPECT_EQ(r.cleaned_query,
            (std::vector<std::string>{"keyword", "search"}));
  ASSERT_FALSE(r.results.empty());
  for (size_t i = 1; i < r.results.size(); ++i) {
    EXPECT_GE(r.results[i - 1].score, r.results[i].score);
  }
  EXPECT_FALSE(r.results[0].description.empty());
  EXPECT_FALSE(r.results[0].tuples.empty());
}

TEST_F(EngineTest, CleansTyposBeforeSearching) {
  EngineResponse r = engine_->Search("keywrd searh");
  EXPECT_TRUE(r.query_was_corrected);
  EXPECT_EQ(r.cleaned_query,
            (std::vector<std::string>{"keyword", "search"}));
  EXPECT_FALSE(r.results.empty());
}

TEST_F(EngineTest, GraphBackendReturnsTrees) {
  EngineOptions opts;
  opts.backend = Backend::kDataGraph;
  EngineResponse r = engine_->Search("keyword search", opts);
  ASSERT_FALSE(r.results.empty());
  EXPECT_FALSE(r.results[0].tuples.empty());
}

TEST_F(EngineTest, SuggestionsExcludeQueryTerms) {
  EngineResponse r = engine_->Search("keyword");
  for (const std::string& s : r.suggestions) {
    EXPECT_NE(s, "keyword");
  }
}

TEST_F(EngineTest, CompletionWorks) {
  auto completions = engine_->Complete("key");
  ASSERT_FALSE(completions.empty());
  for (const std::string& c : completions) {
    EXPECT_TRUE(c.starts_with("key")) << c;
  }
}

TEST_F(EngineTest, EmptyAndGarbageQueries) {
  EXPECT_TRUE(engine_->Search("").results.empty());
  EngineOptions no_clean;
  no_clean.clean_query = false;
  EXPECT_TRUE(engine_->Search("qqqqxxxx zzzzyyyy", no_clean).results.empty());
}

}  // namespace
}  // namespace kws::engine

// ------------------------------------------------------- XML facade tests

#include "core/engine/xml_engine.h"
#include "core/lca/xrank.h"
#include "xml/bibgen.h"
#include "xml/stats.h"
#include "xml_reference.h"

namespace kws::engine {
namespace {

class XmlEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    doc_ = new xml::BibDocument(
        xml::MakeBibDocument({.seed = 4, .num_venues = 6}));
    engine_ = new XmlKeywordSearch(doc_->tree);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete doc_;
    engine_ = nullptr;
    doc_ = nullptr;
  }
  static xml::BibDocument* doc_;
  static XmlKeywordSearch* engine_;
};

xml::BibDocument* XmlEngineTest::doc_ = nullptr;
XmlKeywordSearch* XmlEngineTest::engine_ = nullptr;

TEST_F(XmlEngineTest, RankedResultsWithSnippets) {
  XmlResponse r = engine_->Search(doc_->vocabulary[0]);
  ASSERT_FALSE(r.results.empty());
  for (size_t i = 1; i < r.results.size(); ++i) {
    EXPECT_GE(r.results[i - 1].score, r.results[i].score);
  }
  for (const XmlResult& res : r.results) {
    EXPECT_FALSE(res.snippet.empty());
    // The display root encloses or equals the anchor, or an ancestor.
    EXPECT_TRUE(doc_->tree.IsAncestorOrSelf(res.display_root, res.anchor) ||
                doc_->tree.IsAncestorOrSelf(res.anchor, res.display_root));
  }
  EXPECT_FALSE(r.clusters.empty());
}

TEST_F(XmlEngineTest, ElcaAtLeastAsManyAsSlca) {
  XmlEngineOptions slca_opts;
  slca_opts.k = 1000;
  XmlEngineOptions elca_opts = slca_opts;
  elca_opts.semantics = XmlSemantics::kElca;
  const std::string q = doc_->vocabulary[0] + " " + doc_->vocabulary[1];
  const size_t slca = engine_->Search(q, slca_opts).results.size();
  const size_t elca = engine_->Search(q, elca_opts).results.size();
  EXPECT_GE(elca, slca);
}

TEST_F(XmlEngineTest, EmptyAndUnmatchedQueries) {
  EXPECT_TRUE(engine_->Search("").results.empty());
  EXPECT_TRUE(engine_->Search("zzznope").results.empty());
}

/// The bibliography with tag names added to some texts, so tag-name
/// keywords match text and reach XSeek's explicit return nodes.
xml::XmlTree TaggedBibliography(size_t venues, size_t papers) {
  xml::XmlTree tree = xml::MakeBibDocument({.seed = 42, .num_venues = venues,
                                       .papers_per_venue = papers})
                     .tree;
  const char* const kTags[] = {"title", "author", "paper", "name"};
  for (xml::XmlNodeId n = 0; n < tree.size(); ++n) {
    if (!tree.text(n).empty() && n % 7 == 0) {
      tree.AppendText(n, kTags[(n / 7) % std::size(kTags)]);
    }
  }
  tree.BuildKeywordIndex();
  return tree;
}

/// (num_venues, papers_per_venue) of the bibliography under test.
class XmlEngineOracleTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(XmlEngineOracleTest, EveryFieldMatchesReferencePipeline) {
  const auto [venues, papers] = GetParam();
  const xml::XmlTree tree = TaggedBibliography(venues, papers);
  const XmlKeywordSearch engine(tree);
  const xml::PathStatistics stats = xml::ComputePathStatistics(tree);
  const std::vector<double> elem_rank = lca::ElemRank(tree);
  // Pairs of the 16 most frequent terms, every term with a tag name, and
  // a few singles and misses.
  const std::vector<std::string> terms = relational::MakeVocabulary(16);
  std::vector<std::string> queries = {"", "zzznope", "title", "paper author",
                                      terms[0], terms[0] + " zzznope"};
  for (size_t i = 0; i < terms.size(); ++i) {
    for (size_t j = i + 1; j < terms.size(); ++j) {
      queries.push_back(terms[i] + " " + terms[j]);
    }
    for (const char* tag : {"title", "author", "paper", "name"}) {
      queries.push_back(terms[i] + " " + tag);
    }
  }
  size_t answered = 0;
  for (const XmlSemantics semantics :
       {XmlSemantics::kSlca, XmlSemantics::kElca}) {
    for (const size_t k : {size_t{1}, size_t{10}}) {
      XmlEngineOptions options;
      options.semantics = semantics;
      options.k = k;
      for (const std::string& q : queries) {
        const XmlResponse got = engine.Search(q, options);
        xmlref::ExpectSameResponse(
            got, xmlref::Search(tree, stats, elem_rank, q, options),
            "query '" + q + "' k " + std::to_string(k));
        answered += !got.results.empty();
      }
    }
  }
  EXPECT_GT(answered, queries.size());
}

INSTANTIATE_TEST_SUITE_P(
    BibSizes, XmlEngineOracleTest,
    ::testing::Values(std::make_pair(size_t{10}, size_t{5}),
                      std::make_pair(size_t{80}, size_t{10})));

}  // namespace
}  // namespace kws::engine
