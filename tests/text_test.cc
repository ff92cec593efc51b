#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "relational/dblp.h"
#include "relational/query_log.h"
#include "text/edit_distance.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"
#include "text/trie.h"

namespace kws::text {
namespace {

TEST(TokenizerTest, SplitsAndLowercases) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Keyword Search, on Databases!"),
            (std::vector<std::string>{"keyword", "search", "databases"}));
}

TEST(TokenizerTest, DropsStopwords) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("the state of the art"),
            (std::vector<std::string>{"state", "art"}));
}

TEST(TokenizerTest, KeepsStopwordsWhenDisabled) {
  TokenizerOptions opts;
  opts.drop_stopwords = false;
  Tokenizer t(opts);
  EXPECT_EQ(t.Tokenize("of the"), (std::vector<std::string>{"of", "the"}));
}

TEST(TokenizerTest, AlphanumericTokensSurvive) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("icde2011 c++ x86"),
            (std::vector<std::string>{"icde2011", "c", "x86"}));
}

TEST(TokenizerTest, EmptyInput) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("  ,,;; ").empty());
}

TEST(TokenizerTest, MinTokenLength) {
  TokenizerOptions opts;
  opts.min_token_length = 3;
  Tokenizer t(opts);
  EXPECT_EQ(t.Tokenize("db is no xml yes"),
            (std::vector<std::string>{"xml", "yes"}));
}

// The 19 stopwords the default tokenizer drops, spelled out here so a
// change to the list shows up as a test diff.
constexpr const char* kExpectedStopwords[] = {
    "a",  "an", "and", "are", "as",  "at",  "be",  "by", "for", "from",
    "in", "is", "it",  "of",  "on",  "or",  "the", "to", "with"};

TEST(TokenizerTest, EveryListedStopwordIsAStopword) {
  const Tokenizer t;
  for (const char* w : kExpectedStopwords) {
    EXPECT_TRUE(t.IsStopword(w)) << w;
  }
}

TEST(TokenizerTest, NearMissesAndNonLowercaseWordsAreNotStopwords) {
  const Tokenizer t;
  for (const char* w : {"th", "ands", "them", "", "ann", "f", "wit", "withs",
                        "z", "tho", "The", "AND", "Of", "A", "wITH"}) {
    EXPECT_FALSE(t.IsStopword(w)) << '"' << w << '"';
  }
}

// A test-local copy of the tokenizer as it stood with a per-instance hash
// set of stopwords: the reference the production tokenizer must match
// token for token.
std::vector<std::string> HashSetTokenize(std::string_view input,
                                         const TokenizerOptions& options) {
  const std::unordered_set<std::string> stopwords(
      std::begin(kExpectedStopwords), std::end(kExpectedStopwords));
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.size() >= options.min_token_length &&
        !(options.drop_stopwords && stopwords.count(current) > 0)) {
      tokens.push_back(current);
    }
    current.clear();
  };
  for (char raw : input) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(options.lowercase ? static_cast<char>(std::tolower(c))
                                          : raw);
    } else if (!current.empty()) {
      flush();
    }
  }
  if (!current.empty()) flush();
  return tokens;
}

TEST(TokenizerTest, MatchesHashSetReferenceOverQueryLogVariants) {
  relational::DblpOptions dopts;
  dopts.num_authors = 40;
  dopts.num_papers = 80;
  dopts.num_conferences = 6;
  const relational::DblpDatabase dblp = relational::MakeDblpDatabase(dopts);
  relational::QueryLogOptions lopts;
  lopts.num_queries = 60;
  const relational::QueryLog log =
      relational::MakeQueryLog(*dblp.db, dblp.paper, lopts);
  ASSERT_FALSE(log.empty());

  std::vector<std::string> texts = {"", "  ,,;; ", "the of and", "THE Of aNd",
                                    "a-an.and!are", "c++ x86 icde2011"};
  for (const relational::LoggedQuery& q : log) {
    const std::string plain = Join(q.keywords, " ");
    std::string upper, title, punctuated;
    bool word_start = true;
    for (char c : plain) {
      const unsigned char u = static_cast<unsigned char>(c);
      upper += static_cast<char>(std::toupper(u));
      title += word_start ? static_cast<char>(std::toupper(u)) : c;
      word_start = c == ' ';
      punctuated += c == ' ' ? std::string(",; ") : std::string(1, c);
    }
    texts.insert(texts.end(),
                 {plain, upper, title, "The " + punctuated + "!",
                  "(" + plain + ") AND of the " + upper + "?"});
  }

  size_t dropped = 0;
  for (const bool drop : {true, false}) {
    for (const bool lowercase : {true, false}) {
      TokenizerOptions opts;
      opts.drop_stopwords = drop;
      opts.lowercase = lowercase;
      const Tokenizer t(opts);
      for (const std::string& text : texts) {
        const std::vector<std::string> want = HashSetTokenize(text, opts);
        EXPECT_EQ(t.Tokenize(text), want)
            << '"' << text << "\" drop=" << drop
            << " lowercase=" << lowercase;
        if (drop) {
          TokenizerOptions keep = opts;
          keep.drop_stopwords = false;
          dropped += HashSetTokenize(text, keep).size() - want.size();
        }
      }
    }
  }
  EXPECT_GT(dropped, 0u) << "the variants must exercise stopword dropping";
}

TEST(EditDistanceTest, Basics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("datbase", "database"), 1u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("conf", "conference"),
            EditDistance("conference", "conf"));
}

TEST(BoundedEditDistanceTest, WithinBound) {
  EXPECT_EQ(BoundedEditDistance("datbase", "database", 2), 1u);
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 0), 0u);
}

TEST(BoundedEditDistanceTest, ExceedsBoundReturnsSentinel) {
  EXPECT_EQ(BoundedEditDistance("aaaa", "bbbb", 2), 3u);
  EXPECT_EQ(BoundedEditDistance("short", "muchlongerword", 3), 4u);
}

TEST(BoundedEditDistanceTest, AgreesWithExactWhenWithinBound) {
  const std::vector<std::string> words = {"ipad",   "ipod",  "apple", "appl",
                                          "widom",  "xml",   "query", "quary",
                                          "sigmod", "icde"};
  for (const auto& a : words) {
    for (const auto& b : words) {
      size_t exact = EditDistance(a, b);
      for (size_t bound = 0; bound <= 4; ++bound) {
        size_t got = BoundedEditDistance(a, b, bound);
        if (exact <= bound) {
          EXPECT_EQ(got, exact) << a << " vs " << b << " bound " << bound;
        } else {
          EXPECT_EQ(got, bound + 1) << a << " vs " << b << " bound " << bound;
        }
      }
    }
  }
}

TEST(DamerauTest, TranspositionCostsOne) {
  EXPECT_EQ(DamerauEditDistance("ab", "ba"), 1u);
  EXPECT_EQ(EditDistance("ab", "ba"), 2u);
  EXPECT_EQ(DamerauEditDistance("datbaase", "database"), 1u);
}

TEST(DamerauTest, NeverExceedsLevenshtein) {
  const std::vector<std::string> words = {"ipad", "pida", "conference",
                                          "confrence", "banks", "bakns"};
  for (const auto& a : words) {
    for (const auto& b : words) {
      EXPECT_LE(DamerauEditDistance(a, b), EditDistance(a, b));
    }
  }
}

class TrieTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* w : {"sig", "sigact", "sigmod", "sigweb", "sir",
                          "srivastava", "database", "data"}) {
      trie_.Insert(w);
    }
    trie_.Freeze();
  }
  Trie trie_;
};

TEST_F(TrieTest, FindExactWords) {
  EXPECT_TRUE(trie_.Find("sigmod").has_value());
  EXPECT_TRUE(trie_.Find("data").has_value());
  EXPECT_FALSE(trie_.Find("sigm").has_value());
  EXPECT_FALSE(trie_.Find("").has_value());
}

TEST_F(TrieTest, PrefixRangeCoversDescendants) {
  WordRange r = trie_.PrefixRange("sig");
  EXPECT_EQ(r.size(), 4u);  // sig, sigact, sigmod, sigweb
  for (uint32_t id = r.lo; id < r.hi; ++id) {
    EXPECT_TRUE(trie_.Word(id).starts_with("sig"));
  }
}

TEST_F(TrieTest, PrefixRangeEmptyForUnknown) {
  EXPECT_TRUE(trie_.PrefixRange("xyz").empty());
  EXPECT_TRUE(trie_.PrefixRange("sigmodx").empty());
}

TEST_F(TrieTest, EmptyPrefixCoversAll) {
  EXPECT_EQ(trie_.PrefixRange("").size(), trie_.size());
}

TEST_F(TrieTest, CompleteIsLexicographic) {
  auto out = trie_.Complete("sig", 10);
  EXPECT_EQ(out, (std::vector<std::string>{"sig", "sigact", "sigmod",
                                           "sigweb"}));
  EXPECT_EQ(trie_.Complete("sig", 2).size(), 2u);
}

TEST_F(TrieTest, DuplicatesCollapsed) {
  Trie t;
  t.Insert("a");
  t.Insert("a");
  t.Freeze();
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(TrieTest, FuzzyExactPrefixIncluded) {
  auto ranges = trie_.FuzzyPrefixRanges("sig", 1);
  size_t total = 0;
  bool covers_sigmod = false;
  auto sigmod_id = trie_.Find("sigmod");
  for (const WordRange& r : ranges) {
    total += r.size();
    if (*sigmod_id >= r.lo && *sigmod_id < r.hi) covers_sigmod = true;
  }
  EXPECT_TRUE(covers_sigmod);
  EXPECT_GE(total, 4u);
}

TEST_F(TrieTest, FuzzyToleratesOneTypo) {
  // "sib" is one substitution away from prefix "sig".
  auto ranges = trie_.FuzzyPrefixRanges("sib", 1);
  auto sigmod_id = trie_.Find("sigmod");
  bool covers = false;
  for (const WordRange& r : ranges) {
    covers |= (*sigmod_id >= r.lo && *sigmod_id < r.hi);
  }
  EXPECT_TRUE(covers);
}

TEST_F(TrieTest, FuzzyZeroEditsEqualsExact) {
  auto ranges = trie_.FuzzyPrefixRanges("sig", 0);
  ASSERT_EQ(ranges.size(), 1u);
  WordRange exact = trie_.PrefixRange("sig");
  EXPECT_EQ(ranges[0].lo, exact.lo);
  EXPECT_EQ(ranges[0].hi, exact.hi);
}

TEST_F(TrieTest, FuzzyRangesAreMergedAndSorted) {
  auto ranges = trie_.FuzzyPrefixRanges("s", 1);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_GT(ranges[i].lo, ranges[i - 1].hi);
  }
}

// Property: fuzzy prefix ranges with bound d cover exactly the words having
// some prefix within Levenshtein distance d of the query prefix.
class TrieFuzzyPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TrieFuzzyPropertyTest, MatchesBruteForce) {
  const size_t max_edits = GetParam();
  kws::Rng rng(99);
  Trie trie;
  std::vector<std::string> words;
  const char alphabet[] = "abc";
  for (int i = 0; i < 200; ++i) {
    std::string w;
    size_t len = 1 + rng.Index(6);
    for (size_t j = 0; j < len; ++j) w.push_back(alphabet[rng.Index(3)]);
    words.push_back(w);
    trie.Insert(w);
  }
  trie.Freeze();
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());

  for (const std::string prefix : {"ab", "ca", "bbb", "a"}) {
    auto ranges = trie.FuzzyPrefixRanges(prefix, max_edits);
    std::vector<bool> covered(words.size(), false);
    for (const WordRange& r : ranges) {
      for (uint32_t id = r.lo; id < r.hi; ++id) covered[id] = true;
    }
    for (size_t id = 0; id < words.size(); ++id) {
      bool expect = false;
      const std::string& w = words[id];
      for (size_t plen = 0; plen <= w.size() && !expect; ++plen) {
        expect = EditDistance(w.substr(0, plen), prefix) <= max_edits;
      }
      EXPECT_EQ(covered[id], expect)
          << "word " << w << " prefix " << prefix << " d " << max_edits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TrieFuzzyPropertyTest,
                         ::testing::Values(0, 1, 2));

class InvertedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.AddDocument(0, "keyword search on relational databases");
    index_.AddDocument(1, "xml keyword search");
    index_.AddDocument(2, "cloud computing platforms");
    index_.AddDocument(3, "keyword keyword keyword spam");
  }
  InvertedIndex index_;
};

TEST_F(InvertedIndexTest, CountsDocsAndTerms) {
  EXPECT_EQ(index_.num_docs(), 4u);
  EXPECT_EQ(index_.DocFreq("keyword"), 3u);
  EXPECT_EQ(index_.DocFreq("cloud"), 1u);
  EXPECT_EQ(index_.DocFreq("nonexistent"), 0u);
}

TEST_F(InvertedIndexTest, PostingsTrackTermFrequency) {
  const auto& plist = index_.GetPostings("keyword");
  ASSERT_EQ(plist.size(), 3u);
  EXPECT_EQ(plist[0].doc, 0u);
  EXPECT_EQ(plist[2].doc, 3u);
  EXPECT_EQ(plist[2].tf, 3u);
}

TEST_F(InvertedIndexTest, IdfRareBeatsCommon) {
  EXPECT_GT(index_.Idf("cloud"), index_.Idf("keyword"));
  EXPECT_GT(index_.Idf("nonexistent"), index_.Idf("cloud"));
}

TEST_F(InvertedIndexTest, SearchRanksRelevantFirst) {
  auto res = index_.Search("xml keyword", 10);
  ASSERT_FALSE(res.empty());
  EXPECT_EQ(res[0].doc, 1u);  // contains both terms
}

TEST_F(InvertedIndexTest, ConjunctiveRequiresAllTerms) {
  auto res = index_.SearchConjunctive("keyword search", 10);
  std::vector<text::DocId> docs;
  for (const auto& r : res) docs.push_back(r.doc);
  std::sort(docs.begin(), docs.end());
  EXPECT_EQ(docs, (std::vector<text::DocId>{0, 1}));
}

TEST_F(InvertedIndexTest, ConjunctiveEmptyWhenNoDocHasAll) {
  EXPECT_TRUE(index_.SearchConjunctive("xml cloud", 10).empty());
}

TEST_F(InvertedIndexTest, SearchRespectsK) {
  auto res = index_.Search("keyword", 2);
  EXPECT_EQ(res.size(), 2u);
  EXPECT_TRUE(index_.Search("keyword", 0).empty());
  EXPECT_TRUE(index_.SearchConjunctive("keyword", 0).empty());
}

TEST_F(InvertedIndexTest, OutOfOrderAddKeepsPostingsSorted) {
  InvertedIndex idx;
  idx.AddDocument(5, "zeta");
  idx.AddDocument(2, "zeta");
  idx.AddDocument(9, "zeta");
  idx.AddDocument(2, "zeta");
  const auto& plist = idx.GetPostings("zeta");
  ASSERT_EQ(plist.size(), 3u);
  EXPECT_EQ(plist[0].doc, 2u);
  EXPECT_EQ(plist[0].tf, 2u);
  EXPECT_EQ(plist[1].doc, 5u);
  EXPECT_EQ(plist[2].doc, 9u);
}

TEST_F(InvertedIndexTest, VocabularySorted) {
  auto vocab = index_.Vocabulary();
  EXPECT_TRUE(std::is_sorted(vocab.begin(), vocab.end()));
  EXPECT_TRUE(std::binary_search(vocab.begin(), vocab.end(), "keyword"));
}

TEST_F(InvertedIndexTest, ScoreZeroForIrrelevantDoc) {
  EXPECT_EQ(index_.Score(2, {"keyword"}), 0.0);
  EXPECT_GT(index_.Score(0, {"keyword"}), 0.0);
}

// Brute-force reference for both searches: score every document with
// `Score`, keep the matching ones, sort by (score desc, doc asc), take k.
std::vector<ScoredDoc> ReferenceSearch(const InvertedIndex& index,
                                       std::string_view query, size_t k,
                                       bool conjunctive) {
  const std::vector<std::string> terms = index.tokenizer().Tokenize(query);
  std::vector<ScoredDoc> all;
  for (DocId d = 0; d < index.num_docs(); ++d) {
    size_t present = 0;  // query terms (with repeats) that occur in d
    for (const std::string& t : terms) {
      bool has = false;
      for (const Posting& p : index.GetPostings(t)) has |= p.doc == d;
      present += has;
    }
    const bool keep = conjunctive
                          ? !terms.empty() && present == terms.size()
                          : present > 0;
    if (keep) all.push_back(ScoredDoc{d, index.Score(d, terms)});
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(InvertedIndexOracleTest, BothSearchesMatchSortedReferenceUnderTies) {
  // Repeated texts give bit-identical scores; ids are added out of order
  // so neither insertion nor hash order lines up with doc order.
  const std::vector<std::pair<DocId, std::string>> docs = {
      {7, "search keyword xml"},   {0, "xml keyword search"},
      {5, "relational keyword"},   {2, "xml keyword search"},
      {9, "keyword keyword"},      {1, "relational keyword"},
      {4, "xml keyword search"},   {3, "graph search"},
      {8, "graph"},                {6, "keyword"},
      {10, "xml graph"},           {11, "xml graph"}};
  InvertedIndex index;
  for (const auto& [id, text] : docs) index.AddDocument(id, text);
  const size_t all = index.num_docs();
  size_t ties = 0;
  for (const char* query :
       {"xml keyword", "keyword", "search graph", "xml keyword search",
        "graph xml", "keyword keyword", "absent", ""}) {
    for (const bool conjunctive : {false, true}) {
      for (const size_t k : {size_t{1}, size_t{3}, all}) {
        const std::vector<ScoredDoc> got =
            conjunctive ? index.SearchConjunctive(query, k)
                        : index.Search(query, k);
        const std::vector<ScoredDoc> want =
            ReferenceSearch(index, query, k, conjunctive);
        ASSERT_EQ(got.size(), want.size())
            << query << " conjunctive=" << conjunctive << " k=" << k;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].doc, want[i].doc)
              << query << " conjunctive=" << conjunctive << " k=" << k
              << " rank " << i;
          EXPECT_EQ(got[i].score, want[i].score);
          ties += i > 0 && want[i].score == want[i - 1].score;
        }
      }
    }
  }
  EXPECT_GT(ties, 0u) << "the corpus must exercise tied scores";
}

}  // namespace
}  // namespace kws::text
