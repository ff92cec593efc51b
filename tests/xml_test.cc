#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "xml/bibgen.h"
#include "xml/parser.h"
#include "text/tokenizer.h"
#include "xml/stats.h"
#include "xml/tree.h"

namespace kws::xml {
namespace {

/// conf -> (name, year, paper -> (title, author, author)).
XmlTree SmallTree() {
  XmlTree t;
  const XmlNodeId conf = t.AddElement(kNoXmlNode, "conf");
  const XmlNodeId name = t.AddElement(conf, "name");
  t.AppendText(name, "SIGMOD");
  const XmlNodeId year = t.AddElement(conf, "year");
  t.AppendText(year, "2007");
  const XmlNodeId paper = t.AddElement(conf, "paper");
  const XmlNodeId title = t.AddElement(paper, "title");
  t.AppendText(title, "keyword search");
  const XmlNodeId a1 = t.AddElement(paper, "author");
  t.AppendText(a1, "mark");
  const XmlNodeId a2 = t.AddElement(paper, "author");
  t.AppendText(a2, "chen");
  t.BuildKeywordIndex();
  return t;
}

TEST(XmlTreeTest, PreorderIdsAndDepths) {
  XmlTree t = SmallTree();
  EXPECT_EQ(t.size(), 7u);
  EXPECT_EQ(t.tag(0), "conf");
  EXPECT_EQ(t.depth(0), 0u);
  EXPECT_EQ(t.depth(3), 1u);  // paper
  EXPECT_EQ(t.depth(4), 2u);  // title
  EXPECT_EQ(t.parent(4), 3u);
  EXPECT_EQ(t.parent(0), kNoXmlNode);
}

TEST(XmlTreeTest, DeweyEncodesChildPath) {
  XmlTree t = SmallTree();
  EXPECT_TRUE(t.dewey(0).empty());
  EXPECT_EQ(t.dewey(3), (Dewey{2}));     // paper is conf's 3rd child
  EXPECT_EQ(t.dewey(6), (Dewey{2, 2}));  // second author
}

TEST(XmlTreeTest, AncestorOrSelf) {
  XmlTree t = SmallTree();
  EXPECT_TRUE(t.IsAncestorOrSelf(0, 6));
  EXPECT_TRUE(t.IsAncestorOrSelf(3, 4));
  EXPECT_TRUE(t.IsAncestorOrSelf(3, 3));
  EXPECT_FALSE(t.IsAncestorOrSelf(4, 3));
  EXPECT_FALSE(t.IsAncestorOrSelf(1, 2));
}

TEST(XmlTreeTest, LcaComputations) {
  XmlTree t = SmallTree();
  EXPECT_EQ(t.Lca(5, 6), 3u);  // two authors -> paper
  EXPECT_EQ(t.Lca(1, 4), 0u);  // name x title -> conf
  EXPECT_EQ(t.Lca(3, 4), 3u);  // ancestor of the other
  EXPECT_EQ(t.Lca(2, 2), 2u);
}

TEST(XmlTreeTest, LabelPath) {
  XmlTree t = SmallTree();
  EXPECT_EQ(t.LabelPath(0), "/conf");
  EXPECT_EQ(t.LabelPath(4), "/conf/paper/title");
}

TEST(XmlTreeTest, KeywordIndexDocumentOrder) {
  XmlTree t = SmallTree();
  EXPECT_EQ(t.MatchNodes("mark"), (std::vector<XmlNodeId>{5}));
  EXPECT_EQ(t.MatchNodes("keyword"), (std::vector<XmlNodeId>{4}));
  EXPECT_TRUE(t.MatchNodes("absent").empty());
  auto vocab = t.Vocabulary();
  EXPECT_TRUE(std::is_sorted(vocab.begin(), vocab.end()));
}

TEST(XmlTreeTest, SerializeRoundTripThroughParser) {
  XmlTree t = SmallTree();
  const std::string serialized = t.ToXmlString(0);
  Result<XmlTree> parsed = ParseXml(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const XmlTree& p = parsed.value();
  ASSERT_EQ(p.size(), t.size());
  for (XmlNodeId n = 0; n < t.size(); ++n) {
    EXPECT_EQ(p.tag(n), t.tag(n));
    EXPECT_EQ(p.text(n), t.text(n));
    EXPECT_EQ(p.parent(n), t.parent(n));
  }
}

TEST(XmlParserTest, ParsesNestedElements) {
  auto r = ParseXml("<a><b>hello</b><c><d/>world</c></a>");
  ASSERT_TRUE(r.ok());
  const XmlTree& t = r.value();
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.tag(0), "a");
  EXPECT_EQ(t.text(1), "hello");
  EXPECT_EQ(t.tag(3), "d");
  EXPECT_EQ(t.text(2), "world");
}

TEST(XmlParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></b>").ok());
  EXPECT_FALSE(ParseXml("<a></a><b></b>").ok());
  EXPECT_FALSE(ParseXml("text only").ok());
  EXPECT_FALSE(ParseXml("<>empty</>").ok());
}

TEST(XmlParserTest, SelfClosingAndWhitespace) {
  auto r = ParseXml("  <root>\n  <leaf/>\n  </root>  ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_TRUE(r.value().text(0).empty());
}

TEST(BibGenTest, StructureMatchesSpec) {
  BibDocument doc = MakeBibDocument({.seed = 1, .num_venues = 6,
                                     .papers_per_venue = 5});
  const XmlTree& t = doc.tree;
  EXPECT_EQ(t.tag(0), "bib");
  EXPECT_EQ(t.children(0).size(), 6u);
  size_t conferences = 0, journals = 0, workshops = 0;
  for (XmlNodeId v : t.children(0)) {
    const std::string& tag = t.tag(v);
    conferences += (tag == "conference");
    journals += (tag == "journal");
    workshops += (tag == "workshop");
    // name, year, then papers
    EXPECT_EQ(t.tag(t.children(v)[0]), "name");
    EXPECT_EQ(t.tag(t.children(v)[1]), "year");
    EXPECT_EQ(t.children(v).size(), 7u);
  }
  EXPECT_EQ(conferences, 2u);
  EXPECT_EQ(journals, 2u);
  EXPECT_EQ(workshops, 2u);
}

TEST(BibGenTest, DeterministicAndIndexed) {
  BibDocument a = MakeBibDocument({.seed = 5});
  BibDocument b = MakeBibDocument({.seed = 5});
  ASSERT_EQ(a.tree.size(), b.tree.size());
  for (XmlNodeId n = 0; n < a.tree.size(); n += 11) {
    EXPECT_EQ(a.tree.text(n), b.tree.text(n));
  }
  // Top vocabulary term matches many title nodes.
  EXPECT_GT(a.tree.MatchNodes(a.vocabulary[0]).size(), 5u);
}

class BibGenFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BibGenFuzzTest, GeneratedTreesAreValidPreorder) {
  const uint64_t seed = GetParam();
  BibDocument doc = MakeBibDocument({.seed = seed,
                                     .num_venues = 3 + seed % 5,
                                     .papers_per_venue = 2 + seed % 7});
  Status s = doc.tree.ValidatePreorder();
  EXPECT_TRUE(s.ok()) << s.ToString();

  // Parser output must satisfy the same structural contract.
  auto parsed = ParseXml(doc.tree.ToXmlString(0));
  ASSERT_TRUE(parsed.ok());
  s = parsed.value().ValidatePreorder();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BibGenFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(PathStatisticsTest, CountsAndRepeatability) {
  BibDocument doc = MakeBibDocument({.seed = 1, .num_venues = 3,
                                     .papers_per_venue = 4});
  PathStatistics stats = ComputePathStatistics(doc.tree);
  EXPECT_EQ(stats.total_elements, doc.tree.size());
  EXPECT_EQ(stats.path_count["/bib"], 1u);
  EXPECT_EQ(stats.path_count["/bib/conference/paper"], 4u);
  // paper repeats under a venue; name does not.
  EXPECT_TRUE(stats.path_repeatable["/bib/conference/paper"]);
  EXPECT_FALSE(stats.path_repeatable["/bib/conference/name"]);
  EXPECT_GT(stats.avg_depth, 1.0);
}

TEST(PathStatisticsTest, AuthorsRepeatable) {
  XmlTree t = SmallTree();
  PathStatistics stats = ComputePathStatistics(t);
  EXPECT_TRUE(stats.path_repeatable["/conf/paper/author"]);
  EXPECT_FALSE(stats.path_repeatable["/conf/paper/title"]);
}

TEST(PathStatisticsTest, FeatureTableIndexesEveryToken) {
  BibDocument doc = MakeBibDocument({.seed = 3, .num_venues = 6,
                                     .papers_per_venue = 5});
  const XmlTree& tree = doc.tree;
  const PathStatistics stats = ComputePathStatistics(tree);
  ASSERT_EQ(stats.feature_begin.size(), tree.size() + 1);
  EXPECT_EQ(stats.feature_begin.front(), 0u);
  EXPECT_EQ(stats.feature_begin.back(), stats.features.size());
  // Node n's range holds exactly its own tokens, in order, one entry
  // each; every (tag, term) pair maps to one id and each id to one pair.
  const text::Tokenizer tokenizer;
  std::map<std::pair<std::string, std::string>, uint32_t> id_of;
  for (XmlNodeId n = 0; n < tree.size(); ++n) {
    const std::vector<std::string> tokens = tokenizer.Tokenize(tree.text(n));
    const uint32_t begin = stats.feature_begin[n];
    ASSERT_LE(begin, stats.feature_begin[n + 1]);
    ASSERT_EQ(stats.feature_begin[n + 1] - begin, tokens.size())
        << "node " << n;
    if (tree.text(n).empty()) {
      EXPECT_TRUE(tokens.empty());
    }
    for (size_t i = 0; i < tokens.size(); ++i) {
      const uint32_t id = stats.features[begin + i];
      ASSERT_LT(id, stats.num_features);
      const auto [it, inserted] =
          id_of.try_emplace({tree.tag(n), tokens[i]}, id);
      EXPECT_EQ(it->second, id) << tree.tag(n) << " " << tokens[i];
    }
  }
  // Ids are dense and follow (tag, term) order: walking the pairs in
  // order yields 0, 1, 2, ...
  ASSERT_EQ(id_of.size(), stats.num_features);
  uint32_t expected = 0;
  for (const auto& [pair, id] : id_of) EXPECT_EQ(id, expected++);
  // Elements without text (the root, venues, papers) have empty ranges.
  EXPECT_EQ(stats.feature_begin[0], stats.feature_begin[1]);
  const XmlNodeId venue = tree.children(0)[0];
  EXPECT_EQ(stats.feature_begin[venue], stats.feature_begin[venue + 1]);
}

TEST(PathStatisticsTest, FeatureTableOfEmptyTree) {
  const PathStatistics stats = ComputePathStatistics(XmlTree());
  EXPECT_EQ(stats.num_features, 0u);
  EXPECT_EQ(stats.feature_begin, std::vector<uint32_t>{0});
  EXPECT_TRUE(stats.features.empty());
  EXPECT_EQ(stats.num_paths, 0u);
  EXPECT_TRUE(stats.path_id.empty());
  EXPECT_TRUE(stats.node_repeatable.empty());
  EXPECT_EQ(stats.dominant_begin, std::vector<uint32_t>{0});
  EXPECT_TRUE(stats.dominant.empty());
}

TEST(PathStatisticsTest, PerNodeFactsMatchStringKeyedForms) {
  BibDocument doc = MakeBibDocument({.seed = 5, .num_venues = 9,
                                     .papers_per_venue = 6});
  const XmlTree& tree = doc.tree;
  const PathStatistics stats = ComputePathStatistics(tree);
  ASSERT_EQ(stats.path_id.size(), tree.size());
  ASSERT_EQ(stats.node_repeatable.size(), tree.size());
  ASSERT_EQ(stats.dominant_begin.size(), tree.size() + 1);
  EXPECT_EQ(stats.dominant_begin.back(), stats.dominant.size());
  // Path ids intern label paths densely, in document order.
  std::map<std::string, uint32_t> id_of_path;
  const text::Tokenizer tokenizer;
  for (XmlNodeId n = 0; n < tree.size(); ++n) {
    const std::string path = tree.LabelPath(n);
    const auto [it, inserted] = id_of_path.try_emplace(
        path, static_cast<uint32_t>(id_of_path.size()));
    EXPECT_EQ(stats.path_id[n], it->second) << path;
    const auto rit = stats.path_repeatable.find(path);
    EXPECT_EQ(stats.node_repeatable[n],
              rit != stats.path_repeatable.end() && rit->second)
        << path;
    // Dominant features: (tag, term) pairs repeating in the subtree, by
    // count descending then pair ascending, each as its first node.
    std::map<std::pair<std::string, std::string>, size_t> counts;
    std::map<std::pair<std::string, std::string>, XmlNodeId> first;
    for (XmlNodeId m = n; m <= tree.SubtreeEnd(n); ++m) {
      for (const std::string& t : tokenizer.Tokenize(tree.text(m))) {
        ++counts[{tree.tag(m), t}];
        first.try_emplace({tree.tag(m), t}, m);
      }
    }
    std::vector<std::pair<size_t, std::pair<std::string, std::string>>> ranked;
    for (const auto& [pair, count] : counts) {
      if (count >= 2) ranked.emplace_back(count, pair);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    std::vector<XmlNodeId> want;
    for (const auto& [count, pair] : ranked) want.push_back(first[pair]);
    const std::vector<XmlNodeId> got(
        stats.dominant.begin() + stats.dominant_begin[n],
        stats.dominant.begin() + stats.dominant_begin[n + 1]);
    ASSERT_EQ(got, want) << "node " << n;
  }
  EXPECT_EQ(stats.num_paths, id_of_path.size());
  EXPECT_EQ(stats.path_count.size(), id_of_path.size());
  EXPECT_FALSE(stats.node_repeatable[0]);
  EXPECT_GT(stats.dominant_begin[1], 0u);  // the root has repeats
}

}  // namespace
}  // namespace kws::xml
