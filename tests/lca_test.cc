#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/lca/slca.h"
#include "core/lca/xrank.h"
#include "core/lca/xreal.h"
#include "core/lca/xseek.h"
#include "xml/bibgen.h"
#include "xml/stats.h"
#include "xml/tree.h"
#include "xml_reference.h"

namespace kws::lca {
namespace {

using xml::kNoXmlNode;
using xml::XmlNodeId;
using xml::XmlTree;

/// Slide 33's example document:
/// conf(name=SIGMOD, year=2007,
///      paper1(title="keyword", author="mark", author="chen"),
///      paper2(title="rdf", author="mark", author="zhang"))
XmlTree Slide33Tree() {
  XmlTree t;
  XmlNodeId conf = t.AddElement(kNoXmlNode, "conf");
  XmlNodeId name = t.AddElement(conf, "name");
  t.AppendText(name, "sigmod");
  XmlNodeId year = t.AddElement(conf, "year");
  t.AppendText(year, "2007");
  XmlNodeId p1 = t.AddElement(conf, "paper");
  XmlNodeId t1 = t.AddElement(p1, "title");
  t.AppendText(t1, "keyword");
  XmlNodeId a11 = t.AddElement(p1, "author");
  t.AppendText(a11, "mark");
  XmlNodeId a12 = t.AddElement(p1, "author");
  t.AppendText(a12, "chen");
  XmlNodeId p2 = t.AddElement(conf, "paper");
  XmlNodeId t2 = t.AddElement(p2, "title");
  t.AppendText(t2, "rdf");
  XmlNodeId a21 = t.AddElement(p2, "author");
  t.AppendText(a21, "mark");
  XmlNodeId a22 = t.AddElement(p2, "author");
  t.AppendText(a22, "zhang");
  t.BuildKeywordIndex();
  return t;
}

TEST(MatchListsTest, EmptyWhenKeywordMissing) {
  XmlTree t = Slide33Tree();
  EXPECT_TRUE(MatchLists(t, {"keyword", "nothing"}).empty());
  EXPECT_EQ(MatchLists(t, {"keyword", "mark"}).size(), 2u);
}

TEST(SlcaTest, Slide33Example) {
  XmlTree t = Slide33Tree();
  // {keyword, mark}: only paper1 contains both minimally (conf also
  // contains both but has a CA descendant).
  auto lists = MatchLists(t, {"keyword", "mark"});
  auto slca = SlcaBruteForce(t, lists);
  ASSERT_EQ(slca.size(), 1u);
  EXPECT_EQ(t.tag(slca[0]), "paper");
  EXPECT_EQ(t.LabelPath(slca[0]), "/conf/paper");
  EXPECT_EQ(SlcaIndexedLookupEager(t, lists), slca);
  EXPECT_EQ(SlcaMultiway(t, lists), slca);
}

TEST(SlcaTest, AncestorExcludedWhenDescendantQualifies) {
  XmlTree t = Slide33Tree();
  // {mark}: matches in both papers; SLCA = the two author nodes.
  auto lists = MatchLists(t, {"mark"});
  auto slca = SlcaBruteForce(t, lists);
  EXPECT_EQ(slca.size(), 2u);
  for (XmlNodeId n : slca) EXPECT_EQ(t.tag(n), "author");
}

TEST(SlcaTest, RootWhenKeywordsSpanPapers) {
  XmlTree t = Slide33Tree();
  // rdf is only in paper2, keyword only in paper1 -> SLCA = conf.
  auto lists = MatchLists(t, {"keyword", "rdf"});
  auto slca = SlcaBruteForce(t, lists);
  ASSERT_EQ(slca.size(), 1u);
  EXPECT_EQ(t.tag(slca[0]), "conf");
}

TEST(ElcaTest, AncestorWithOwnWitnessIsElca) {
  XmlTree t = Slide33Tree();
  // {mark}: ELCA = exactly the matching author nodes.
  auto lists = MatchLists(t, {"mark"});
  auto elca = ElcaBruteForce(t, lists);
  EXPECT_EQ(elca.size(), 2u);
  EXPECT_EQ(ElcaIndexed(t, lists), elca);
}

TEST(ElcaTest, ConfIsElcaWithExtraWitness) {
  // conf has its own "mark" editor beside the papers: after excluding the
  // CA paper, conf still has a witness pair -> conf is ELCA too.
  XmlTree t;
  XmlNodeId conf = t.AddElement(kNoXmlNode, "conf");
  XmlNodeId ed = t.AddElement(conf, "editor");
  t.AppendText(ed, "mark keyword");
  XmlNodeId p1 = t.AddElement(conf, "paper");
  XmlNodeId t1 = t.AddElement(p1, "title");
  t.AppendText(t1, "keyword");
  XmlNodeId a1 = t.AddElement(p1, "author");
  t.AppendText(a1, "mark");
  t.BuildKeywordIndex();
  auto lists = MatchLists(t, {"keyword", "mark"});
  auto slca = SlcaBruteForce(t, lists);
  auto elca = ElcaBruteForce(t, lists);
  // SLCA: editor (contains both) and paper. ELCA adds conf? No: conf's
  // non-CA-child witnesses... editor and paper are both CA children, so
  // conf has no witnesses left -> not ELCA.
  EXPECT_EQ(slca.size(), 2u);
  EXPECT_EQ(elca.size(), 2u);
  EXPECT_EQ(ElcaIndexed(t, lists), elca);

  // Now move "mark" out of the paper: conf becomes the only node with
  // both, and is both SLCA and ELCA.
  XmlTree t2;
  XmlNodeId conf2 = t2.AddElement(kNoXmlNode, "conf");
  XmlNodeId ed2 = t2.AddElement(conf2, "editor");
  t2.AppendText(ed2, "mark");
  XmlNodeId p21 = t2.AddElement(conf2, "paper");
  t2.AppendText(t2.AddElement(p21, "title"), "keyword");
  t2.BuildKeywordIndex();
  auto lists2 = MatchLists(t2, {"keyword", "mark"});
  EXPECT_EQ(SlcaBruteForce(t2, lists2), (std::vector<XmlNodeId>{conf2}));
  EXPECT_EQ(ElcaBruteForce(t2, lists2), (std::vector<XmlNodeId>{conf2}));
}

TEST(ElcaTest, ElcaSupersetOfSlca) {
  xml::BibDocument doc = xml::MakeBibDocument({.seed = 7});
  auto lists = MatchLists(doc.tree, {doc.vocabulary[0], doc.vocabulary[1]});
  ASSERT_FALSE(lists.empty());
  auto slca = SlcaBruteForce(doc.tree, lists);
  auto elca = ElcaBruteForce(doc.tree, lists);
  // Every SLCA is an ELCA (its witnesses cannot sit in CA children, since
  // an SLCA has no CA descendants at all).
  for (XmlNodeId s : slca) {
    EXPECT_TRUE(std::find(elca.begin(), elca.end(), s) != elca.end())
        << "SLCA " << s << " missing from ELCA";
  }
  EXPECT_GE(elca.size(), slca.size());
}

/// Random tree generator for oracle comparisons. Built depth-first so
/// node ids are document order (the XmlTree invariant).
XmlTree RandomTree(Rng& rng, size_t n, size_t max_children,
                   const std::vector<std::string>& words,
                   double text_prob) {
  XmlTree t;
  t.AddElement(kNoXmlNode, "r");
  size_t budget = n - 1;
  auto grow = [&](auto&& self, XmlNodeId parent, size_t depth) -> void {
    const size_t kids = rng.Index(max_children + 1);
    for (size_t i = 0; i < kids && budget > 0; ++i) {
      --budget;
      const XmlNodeId node = t.AddElement(parent, "e");
      if (rng.Chance(text_prob)) {
        t.AppendText(node, words[rng.Index(words.size())]);
      }
      if (depth < 12) self(self, node, depth + 1);
    }
  };
  while (budget > 0) grow(grow, 0, 1);
  t.BuildKeywordIndex();
  return t;
}

class SlcaOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlcaOracleTest, AllAlgorithmsMatchBruteForce) {
  Rng rng(GetParam());
  const std::vector<std::string> words = {"aa", "bb", "cc", "dd"};
  XmlTree t = RandomTree(rng, 300, 4, words, 0.5);
  const std::vector<std::vector<std::string>> queries = {
      {"aa", "bb"}, {"aa", "bb", "cc"}, {"dd"}, {"aa", "aa"},
      {"aa", "bb", "cc", "dd"}};
  for (const auto& q : queries) {
    auto lists = MatchLists(t, q);
    if (lists.empty()) continue;
    auto ref = SlcaBruteForce(t, lists);
    EXPECT_EQ(SlcaIndexedLookupEager(t, lists), ref) << "ILE seed "
                                                     << GetParam();
    EXPECT_EQ(SlcaMultiway(t, lists), ref) << "Multiway seed " << GetParam();
    auto elca_ref = ElcaBruteForce(t, lists);
    EXPECT_EQ(ElcaIndexed(t, lists), elca_ref) << "ELCA seed " << GetParam();
    EXPECT_EQ(ElcaDeweyJoin(t, lists), elca_ref)
        << "JDewey ELCA seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SlcaOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SlcaStatsTest, IleTouchesFewerNodesThanBruteForceWhenSelective) {
  xml::BibDocument doc = xml::MakeBibDocument(
      {.seed = 3, .num_venues = 30, .papers_per_venue = 20});
  // Rare keyword + frequent keyword: ILE anchors on the rare list.
  const std::string rare = doc.vocabulary[doc.vocabulary.size() - 1];
  const std::string frequent = doc.vocabulary[0];
  auto lists = MatchLists(doc.tree, {rare, frequent});
  if (lists.empty()) GTEST_SKIP() << "rare term absent in this corpus";
  LcaStats brute, ile;
  SlcaBruteForce(doc.tree, lists, &brute);
  SlcaIndexedLookupEager(doc.tree, lists, &ile);
  EXPECT_LT(ile.lca_computations + ile.binary_searches,
            brute.nodes_visited / 4);
}

TEST(XSeekTest, ClassifiesEntitiesAndAttributes) {
  XmlTree t = Slide33Tree();
  xml::PathStatistics stats = xml::ComputePathStatistics(t);
  EXPECT_EQ(Classify(t, stats, t.TagNodes("paper")[0]),
            NodeCategory::kEntity);
  EXPECT_EQ(Classify(t, stats, t.TagNodes("name")[0]),
            NodeCategory::kAttribute);
  EXPECT_EQ(Classify(t, stats, t.TagNodes("author")[0]),
            NodeCategory::kEntity);  // repeats among siblings
  EXPECT_EQ(Classify(t, stats, 0), NodeCategory::kConnection);
}

TEST(XSeekTest, KeywordRoleTagVsText) {
  XmlTree t = Slide33Tree();
  auto roles = ClassifyKeywords(t, {"author", "mark"});
  ASSERT_EQ(roles.size(), 2u);
  EXPECT_TRUE(roles[0].is_tag_name);
  EXPECT_FALSE(roles[1].is_tag_name);
}

TEST(XSeekTest, ImplicitReturnIsNearestEntity) {
  XmlTree t = Slide33Tree();
  xml::PathStatistics stats = xml::ComputePathStatistics(t);
  // Query {keyword, mark} anchors at paper1; paper is an entity.
  auto lists = MatchLists(t, {"keyword", "mark"});
  auto slca = SlcaBruteForce(t, lists);
  ASSERT_EQ(slca.size(), 1u);
  XSeekResult r = InferReturnNodes(t, stats, {"keyword", "mark"}, slca[0]);
  EXPECT_EQ(t.tag(r.result_root), "paper");
  ASSERT_FALSE(r.return_nodes.empty());
  EXPECT_EQ(r.return_nodes[0], r.result_root);
}

TEST(XSeekTest, ExplicitTagKeywordSelectsThoseNodes) {
  XmlTree t = Slide33Tree();
  xml::PathStatistics stats = xml::ComputePathStatistics(t);
  // "mark, title": title is a tag -> return title nodes of mark's paper.
  auto lists = MatchLists(t, {"mark"});
  XSeekResult r = InferReturnNodes(t, stats, {"mark", "title"}, lists[0][0]);
  ASSERT_FALSE(r.return_nodes.empty());
  for (XmlNodeId n : r.return_nodes) EXPECT_EQ(t.tag(n), "title");
}

/// (num_venues, papers_per_venue) of the bibliography under test.
using BibSize = std::pair<size_t, size_t>;

xml::BibDocument OracleDocument(const BibSize& size) {
  return xml::MakeBibDocument(
      {.seed = 42, .num_venues = size.first, .papers_per_venue = size.second});
}

class XSeekOracleTest : public ::testing::TestWithParam<BibSize> {};

TEST_P(XSeekOracleTest, MatchesStringKeyedReferenceOnEveryNode) {
  const xml::BibDocument doc = OracleDocument(GetParam());
  const XmlTree& tree = doc.tree;
  const xml::PathStatistics stats = xml::ComputePathStatistics(tree);
  const std::vector<std::string>& v = doc.vocabulary;
  // Text keywords, tag-name keywords, and both mixed.
  const std::vector<std::vector<std::string>> keyword_sets = {
      {},
      {v[0], v[1]},
      {"title"},
      {v[0], "author"},
      {"name", "paper"},
      {"year", v[2]},
      {"bib"},
      {"zzzabsent", "journal"},
  };
  size_t explicit_roots = 0;
  for (XmlNodeId n = 0; n < tree.size(); ++n) {
    for (const auto& keywords : keyword_sets) {
      const XSeekResult got = InferReturnNodes(tree, stats, keywords, n);
      const XSeekResult want =
          xmlref::InferReturnNodes(tree, stats, keywords, n);
      ASSERT_EQ(got.result_root, want.result_root) << "node " << n;
      ASSERT_EQ(got.return_nodes, want.return_nodes) << "node " << n;
      explicit_roots += got.return_nodes.front() != got.result_root;
    }
  }
  // Tag-name keywords select explicit return nodes, not only entities.
  EXPECT_GT(explicit_roots, 0u);
}

class XRankOracleTest : public ::testing::TestWithParam<BibSize> {};

TEST_P(XRankOracleTest, MatchesFullListScanBitForBit) {
  const xml::BibDocument doc = OracleDocument(GetParam());
  const XmlTree& tree = doc.tree;
  const std::vector<double> elem_rank = ElemRank(tree);
  const std::vector<std::string>& v = doc.vocabulary;
  const std::vector<std::vector<std::string>> keyword_sets = {
      {},
      {v[0]},
      {v[0], v[1]},
      {v[4], v[9], v[1]},
      {v[v.size() - 1]},
      {"zzzabsent", v[0]},
  };
  // Every node is a result root.
  std::vector<XmlNodeId> every(tree.size());
  for (XmlNodeId n = 0; n < tree.size(); ++n) every[n] = n;
  for (const auto& keywords : keyword_sets) {
    const std::vector<ScoredXmlResult> got =
        RankXmlResults(tree, every, keywords, elem_rank);
    const std::vector<ScoredXmlResult> want =
        xmlref::RankXmlResults(tree, every, keywords, elem_rank);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].root, want[i].root)
          << "keywords " << keywords.size() << " rank " << i;
      ASSERT_EQ(xmlref::Bits(got[i].score), xmlref::Bits(want[i].score))
          << "keywords " << keywords.size() << " root " << got[i].root;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BibSizes, XSeekOracleTest,
                         ::testing::Values(BibSize{10, 5}, BibSize{80, 10}));
INSTANTIATE_TEST_SUITE_P(BibSizes, XRankOracleTest,
                         ::testing::Values(BibSize{10, 5}, BibSize{80, 10}));

TEST(XRealTest, PaperBeatsVenueForTitleTerms) {
  xml::BibDocument doc = xml::MakeBibDocument({.seed = 11});
  auto types = InferReturnTypes(doc.tree,
                                {doc.vocabulary[0], doc.vocabulary[1]});
  ASSERT_FALSE(types.empty());
  // The top return type should be a paper or title path, not /bib.
  EXPECT_NE(types[0].label_path, "/bib");
  EXPECT_NE(types[0].label_path.find("paper"), std::string::npos)
      << types[0].label_path;
  // Scores descend.
  for (size_t i = 1; i < types.size(); ++i) {
    EXPECT_GE(types[i - 1].score, types[i].score);
  }
}

TEST(XRealTest, TypesWithoutAllKeywordsExcluded) {
  XmlTree t = Slide33Tree();
  // "sigmod" occurs only under /conf/name; "mark" never under it.
  auto types = InferReturnTypes(t, {"sigmod", "mark"}, 1);
  for (const auto& rt : types) {
    EXPECT_NE(rt.label_path, "/conf/name");
  }
}

}  // namespace
}  // namespace kws::lca
