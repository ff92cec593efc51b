#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/forms/forms.h"
#include "core/infer/correlation.h"
#include "core/infer/iqp.h"
#include "relational/dblp.h"
#include "relational/query_log.h"
#include "relational/shop.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace kws {
namespace {

using infer::JointObservation;

TEST(EntropyTest, UniformAndDegenerate) {
  EXPECT_DOUBLE_EQ(infer::Entropy({1, 1, 1, 1}), 2.0);
  EXPECT_DOUBLE_EQ(infer::Entropy({5}), 0.0);
  EXPECT_DOUBLE_EQ(infer::Entropy({}), 0.0);
  EXPECT_NEAR(infer::Entropy({2, 1, 1}), 1.5, 1e-12);
}

TEST(TotalCorrelationTest, Slide42AuthorPaperExample) {
  // Reconstruction of tutorial slide 42: six equiprobable (author, paper)
  // observations with marginals H(A) = 2.25, H(P) = 1.92, joint 2.58,
  // I(A,P) = 1.59.
  std::vector<JointObservation> joint = {
      {"a1", "p1"}, {"a1", "p2"}, {"a2", "p1"},
      {"a3", "p2"}, {"a4", "p3"}, {"a5", "p4"}};
  EXPECT_NEAR(infer::TotalCorrelation(joint), 1.59, 0.01);
}

TEST(TotalCorrelationTest, Slide43EditorPaperExample) {
  // Slide 43: two deterministic (editor, paper) pairs: H(E) = H(P) =
  // H(E,P) = 1.0, I = 1.0, I* = f(2) * 1.0 / 1.0 = 4.
  std::vector<JointObservation> joint = {{"e1", "p1"}, {"e2", "p2"}};
  EXPECT_NEAR(infer::TotalCorrelation(joint), 1.0, 1e-9);
  EXPECT_NEAR(infer::NormalizedTotalCorrelation(joint), 4.0, 1e-9);
}

TEST(TotalCorrelationTest, IndependentVariablesNearZero) {
  // Full cross product: knowing one variable says nothing about the other.
  std::vector<JointObservation> joint;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      joint.push_back({"a" + std::to_string(a), "b" + std::to_string(b)});
    }
  }
  EXPECT_NEAR(infer::TotalCorrelation(joint), 0.0, 1e-9);
}

TEST(JoinObservationsTest, ChainOverDblp) {
  relational::DblpOptions opts;
  opts.num_authors = 30;
  opts.num_papers = 60;
  relational::DblpDatabase dblp = MakeDblpDatabase(opts);
  // author <- writes -> paper chain: fks 1 (writes.aid) and 2 (writes.pid).
  auto joint = infer::JoinObservations(
      *dblp.db, {dblp.author, dblp.writes, dblp.paper}, {1, 2});
  ASSERT_FALSE(joint.empty());
  EXPECT_EQ(joint.size(), dblp.db->table(dblp.writes).num_rows());
  for (const auto& o : joint) EXPECT_EQ(o.size(), 3u);
  // Authors and papers correlate through writes.
  EXPECT_GT(infer::TotalCorrelation(joint), 0.5);
}

TEST(ParticipationTest, WritesAlwaysParticipates) {
  relational::DblpDatabase dblp = relational::MakeDblpDatabase();
  // FK 1: writes.aid -> author. Every writes row references an author.
  EXPECT_DOUBLE_EQ(infer::ParticipationRatio(*dblp.db, 1, true), 1.0);
  // Most authors wrote something, but possibly not all.
  const double back = infer::ParticipationRatio(*dblp.db, 1, false);
  EXPECT_GT(back, 0.5);
  EXPECT_LE(back, 1.0);
  const double rel = infer::Relatedness(*dblp.db, 1);
  EXPECT_NEAR(rel, (1.0 + back) / 2, 1e-12);
}

TEST(IqpTest, BindsBrandWordToBrandColumn) {
  relational::ShopDatabase shop =
      relational::MakeShopDatabase({.seed = 3, .num_products = 300});
  relational::QueryLog log = MakeQueryLog(*shop.db, shop.product,
                                          {.seed = 4, .num_queries = 100});
  infer::IqpRanker ranker(*shop.db, shop.product, log);
  // "lenovo" occurs in the brand column (and sometimes descriptions);
  // its binding probability must peak at brand (column 2).
  double best = 0;
  relational::ColumnId best_col = 0;
  for (relational::ColumnId c = 1; c < 8; ++c) {
    const double p = ranker.BindingProbability("lenovo", c);
    if (p > best) {
      best = p;
      best_col = c;
    }
  }
  EXPECT_EQ(best_col, 2u);
}

TEST(IqpTest, RankReturnsOrderedInterpretations) {
  relational::ShopDatabase shop =
      relational::MakeShopDatabase({.seed = 3, .num_products = 200});
  relational::QueryLog log = MakeQueryLog(*shop.db, shop.product,
                                          {.seed = 4, .num_queries = 100});
  infer::IqpRanker ranker(*shop.db, shop.product, log);
  auto interps = ranker.Rank({"lenovo", "laptop"}, 5);
  ASSERT_FALSE(interps.empty());
  EXPECT_LE(interps.size(), 5u);
  for (size_t i = 1; i < interps.size(); ++i) {
    EXPECT_GE(interps[i - 1].probability, interps[i].probability);
  }
  // Best interpretation: lenovo -> brand (2), laptop -> category (3).
  EXPECT_EQ(interps[0].bindings[0], 2u);
  EXPECT_EQ(interps[0].bindings[1], 3u);
  // Rendering mentions both columns.
  const std::string s = interps[0].ToString(
      shop.db->table(shop.product).schema(), {"lenovo", "laptop"});
  EXPECT_NE(s.find("brand"), std::string::npos);
  EXPECT_NE(s.find("category"), std::string::npos);
}

// Brute-force IQP reference: enumerate every binding vector, score it
// as prior-weighted binding probabilities (the log-derived column prior
// recomputed here), sort by (probability desc, bindings asc), take k.
std::vector<infer::Interpretation> ReferenceRank(
    const infer::IqpRanker& ranker, const relational::Table& table,
    const relational::QueryLog& log, const std::vector<std::string>& keywords,
    size_t k) {
  const size_t num_cols = table.schema().columns.size();
  std::vector<double> prior(num_cols, 1.0);
  for (const relational::LoggedQuery& q : log) {
    for (const relational::LoggedPredicate& p : q.predicates) {
      if (p.column < num_cols) prior[p.column] += q.count;
    }
  }
  double total = 0;
  for (double p : prior) total += p;
  for (double& p : prior) p /= total;
  std::vector<relational::ColumnId> cols;
  for (relational::ColumnId c = 0; c < num_cols; ++c) {
    if (c != table.schema().primary_key) cols.push_back(c);
  }
  std::vector<infer::Interpretation> all;
  std::vector<size_t> digit(keywords.size(), 0);
  while (true) {
    infer::Interpretation interp;
    interp.probability = 1.0;
    for (size_t i = 0; i < keywords.size(); ++i) {
      const relational::ColumnId c = cols[digit[i]];
      interp.bindings.push_back(c);
      interp.probability =
          interp.probability * ranker.BindingProbability(keywords[i], c) *
          prior[c];
    }
    all.push_back(std::move(interp));
    size_t i = keywords.size();
    while (i > 0 && ++digit[i - 1] == cols.size()) digit[--i] = 0;
    if (i == 0) break;
  }
  std::sort(all.begin(), all.end(),
            [](const infer::Interpretation& a, const infer::Interpretation& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.bindings < b.bindings;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(IqpOracleTest, RankMatchesSortedReferenceUnderTies) {
  relational::ShopDatabase shop =
      relational::MakeShopDatabase({.seed = 3, .num_products = 60});
  const relational::Table& table = shop.db->table(shop.product);
  for (const bool with_log : {false, true}) {
    const relational::QueryLog log =
        with_log ? MakeQueryLog(*shop.db, shop.product,
                                {.seed = 4, .num_queries = 50})
                 : relational::QueryLog{};
    infer::IqpRanker ranker(*shop.db, shop.product, log);
    // An absent keyword binds every column with the same smoothed
    // probability, so its interpretations tie on everything but the
    // bindings; without a log the column prior is flat as well.
    for (const std::vector<std::string>& keywords :
         std::vector<std::vector<std::string>>{{"lenovo", "laptop"},
                                               {"zzqx", "lenovo"},
                                               {"zzqx", "qqzx"}}) {
      size_t all = 1;
      for (size_t i = 0; i < keywords.size(); ++i) {
        all *= table.schema().columns.size() - 1;
      }
      size_t ties = 0;
      for (const size_t k : {size_t{1}, size_t{3}, all}) {
        const auto got = ranker.Rank(keywords, k);
        const auto want = ReferenceRank(ranker, table, log, keywords, k);
        ASSERT_EQ(got.size(), want.size()) << keywords[0] << " k=" << k;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].bindings, want[i].bindings)
              << keywords[0] << " " << keywords[1] << " k=" << k << " rank "
              << i;
          EXPECT_EQ(got[i].probability, want[i].probability);
          ties += i > 0 && want[i].probability == want[i - 1].probability;
        }
      }
      if (!with_log && keywords[0] == "zzqx" && keywords[1] == "qqzx") {
        EXPECT_GT(ties, 0u) << "absent keywords must tie";
      }
    }
  }
}

class FormsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    relational::DblpOptions opts;
    opts.num_authors = 50;
    opts.num_papers = 100;
    dblp_ = new relational::DblpDatabase(MakeDblpDatabase(opts));
  }
  static void TearDownTestSuite() {
    delete dblp_;
    dblp_ = nullptr;
  }
  static relational::DblpDatabase* dblp_;
};

relational::DblpDatabase* FormsTest::dblp_ = nullptr;

TEST_F(FormsTest, EntityQueriabilitySumsToOne) {
  auto q = forms::EntityQueriability(*dblp_->db);
  ASSERT_EQ(q.size(), dblp_->db->num_tables());
  double sum = 0;
  for (double x : q) {
    EXPECT_GT(x, 0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_F(FormsTest, AttributeQueriabilityFullColumns) {
  // Every paper has a title.
  EXPECT_DOUBLE_EQ(
      forms::AttributeQueriability(*dblp_->db, dblp_->paper, 1), 1.0);
}

TEST_F(FormsTest, OperatorQueriabilityShapes) {
  // Text title: projection beats aggregation.
  const double proj = forms::OperatorQueriability(
      *dblp_->db, dblp_->paper, 1, forms::FormOperator::kProject);
  const double aggr = forms::OperatorQueriability(
      *dblp_->db, dblp_->paper, 1, forms::FormOperator::kAggregate);
  EXPECT_GT(proj, aggr);
  // Numeric year: order-by beats projection.
  const double order = forms::OperatorQueriability(
      *dblp_->db, dblp_->conference, 2, forms::FormOperator::kOrderBy);
  const double proj_year = forms::OperatorQueriability(
      *dblp_->db, dblp_->conference, 2, forms::FormOperator::kProject);
  EXPECT_GT(order, proj_year);
}

TEST_F(FormsTest, GeneratesAuthorWritesPaperSkeleton) {
  auto forms_list = forms::GenerateForms(*dblp_->db, {.max_tables = 3});
  ASSERT_FALSE(forms_list.empty());
  bool found = false;
  for (const auto& f : forms_list) {
    std::vector<relational::TableId> ts = f.tables;
    std::sort(ts.begin(), ts.end());
    if (ts == std::vector<relational::TableId>{dblp_->author, dblp_->paper,
                                               dblp_->writes}) {
      found = true;
      EXPECT_FALSE(f.fields.empty());
    }
  }
  EXPECT_TRUE(found) << "author-writes-paper form missing";
}

TEST_F(FormsTest, FormsSortedByQueriability) {
  auto forms_list = forms::GenerateForms(*dblp_->db);
  for (size_t i = 1; i < forms_list.size(); ++i) {
    EXPECT_GE(forms_list[i - 1].queriability, forms_list[i].queriability);
  }
}

// Brute-force field reference: every non-key (table, column, operator)
// of the form's tables with positive queriability, sorted by
// (queriability desc, table asc, column asc, operator asc), first k.
std::vector<forms::FormField> ReferenceFields(const relational::Database& db,
                                              const forms::QueryForm& form,
                                              size_t k) {
  std::vector<forms::FormField> all;
  for (relational::TableId t : form.tables) {
    const relational::Table& table = db.table(t);
    for (relational::ColumnId c = 0; c < table.schema().columns.size(); ++c) {
      if (c == table.schema().primary_key) continue;
      for (forms::FormOperator op :
           {forms::FormOperator::kSelect, forms::FormOperator::kProject,
            forms::FormOperator::kOrderBy, forms::FormOperator::kAggregate}) {
        const double q = forms::OperatorQueriability(db, t, c, op) *
                         forms::AttributeQueriability(db, t, c);
        if (q > 0) all.push_back(forms::FormField{t, c, op, q});
      }
    }
  }
  std::sort(all.begin(), all.end(),
            [](const forms::FormField& a, const forms::FormField& b) {
              if (a.queriability != b.queriability) {
                return a.queriability > b.queriability;
              }
              return std::tie(a.table, a.column, a.op) <
                     std::tie(b.table, b.column, b.op);
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST_F(FormsTest, FieldsMatchSortedReferenceUnderTies) {
  // Full text columns project at queriability 1.0 in every table, so
  // fields tie across the tables of a skeleton; the tie goes to the
  // smaller table id, not to the table the skeleton expansion reached
  // first.
  size_t cross_table_ties = 0;
  for (const size_t max_fields : {size_t{1}, size_t{4}, size_t{64}}) {
    const auto forms_list = forms::GenerateForms(
        *dblp_->db, {.max_tables = 3, .max_fields = max_fields});
    ASSERT_FALSE(forms_list.empty());
    for (const forms::QueryForm& form : forms_list) {
      const auto want = ReferenceFields(*dblp_->db, form, max_fields);
      ASSERT_EQ(form.fields.size(), want.size()) << form.skeleton_key;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(form.fields[i].table, want[i].table)
            << form.skeleton_key << " max_fields=" << max_fields << " field "
            << i;
        EXPECT_EQ(form.fields[i].column, want[i].column);
        EXPECT_EQ(form.fields[i].op, want[i].op);
        EXPECT_EQ(form.fields[i].queriability, want[i].queriability);
        cross_table_ties +=
            i > 0 && want[i].queriability == want[i - 1].queriability &&
            want[i].table != want[i - 1].table;
      }
    }
  }
  EXPECT_GT(cross_table_ties, 0u) << "fields must tie across tables";
}

TEST_F(FormsTest, FieldTieGoesToTheSmallerTableId) {
  // The skeleton expansion reaches the author-writes-paper form as
  // [author, writes, paper]. author.name, writes.aid/pid (order-by) and
  // paper.title all tie at queriability 1.0; the four fields go to the
  // smaller table ids — author, then paper — not to writes, which the
  // expansion visited before paper.
  const auto forms_list = forms::GenerateForms(*dblp_->db);
  const forms::QueryForm* awp = nullptr;
  for (const forms::QueryForm& form : forms_list) {
    if (form.tables == std::vector<relational::TableId>{
                           dblp_->author, dblp_->writes, dblp_->paper}) {
      awp = &form;
    }
  }
  ASSERT_NE(awp, nullptr);
  ASSERT_EQ(awp->fields.size(), 4u);
  const std::vector<relational::TableId> want = {
      dblp_->author, dblp_->author, dblp_->paper, dblp_->paper};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(awp->fields[i].table, want[i]) << awp->ToString(*dblp_->db);
    EXPECT_EQ(awp->fields[i].queriability, 1.0);
  }
  EXPECT_LT(dblp_->author, dblp_->paper);
  EXPECT_LT(dblp_->paper, dblp_->writes);
}

TEST_F(FormsTest, ZeroMaxFieldsYieldsFormsWithoutFields) {
  const auto forms_list =
      forms::GenerateForms(*dblp_->db, {.max_tables = 2, .max_fields = 0});
  ASSERT_FALSE(forms_list.empty());
  for (const forms::QueryForm& form : forms_list) {
    EXPECT_TRUE(form.fields.empty()) << form.skeleton_key;
  }
}

TEST_F(FormsTest, SearchWithZeroKReturnsNothing) {
  forms::FormIndex index(*dblp_->db, forms::GenerateForms(*dblp_->db));
  EXPECT_FALSE(index.Search("paper", 3).empty());
  EXPECT_TRUE(index.Search("paper", 0).empty());
}

TEST_F(FormsTest, SearchFindsRelevantForms) {
  auto forms_list = forms::GenerateForms(*dblp_->db);
  forms::FormIndex index(*dblp_->db, std::move(forms_list));
  // An author-name keyword: the variant expansion turns it into the
  // "author" schema term (slide 57).
  const std::string author_name =
      dblp_->db->table(dblp_->author).cell(0, 1).AsText();
  const std::string first = text::Tokenizer().Tokenize(author_name)[0];
  auto ranked = index.Search(first + " paper", 10);
  ASSERT_FALSE(ranked.empty());
  // Top group must involve the author table.
  bool author_in_top = false;
  for (relational::TableId t : index.forms()[ranked[0].form].tables) {
    author_in_top |= (t == dblp_->author);
  }
  EXPECT_TRUE(author_in_top);
  // Grouping keeps every ranked form, partitioned by skeleton.
  auto groups = index.GroupBySkeleton(ranked);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, ranked.size());
  for (const auto& g : groups) {
    for (const auto& rf : g) {
      EXPECT_EQ(index.forms()[rf.form].skeleton_key,
                index.forms()[g[0].form].skeleton_key);
    }
  }
}

// Brute-force form-search reference: re-index the forms' table and
// column names, score every form against every query variant with
// `Score`, keep each form's best, sort by (score desc, form asc), take k.
std::vector<forms::FormIndex::RankedForm> ReferenceFormSearch(
    const relational::Database& db, const std::vector<forms::QueryForm>& fs,
    const std::string& query, size_t k) {
  text::InvertedIndex docs;
  for (size_t i = 0; i < fs.size(); ++i) {
    std::string doc;
    for (relational::TableId t : fs[i].tables) doc += db.table(t).name() + " ";
    for (const forms::FormField& f : fs[i].fields) {
      doc += db.table(f.table).schema().columns[f.column].name + " ";
    }
    docs.AddDocument(static_cast<text::DocId>(i), doc);
  }
  const std::vector<std::string> tokens = docs.tokenizer().Tokenize(query);
  std::vector<std::string> variants = {query};
  for (const std::string& tok : tokens) {
    for (relational::TableId t = 0; t < db.num_tables(); ++t) {
      if (db.MatchRows(t, tok).empty()) continue;
      std::string variant;
      for (const std::string& other : tokens) {
        if (!variant.empty()) variant += ' ';
        variant += (other == tok) ? db.table(t).name() : other;
      }
      variants.push_back(variant);
    }
  }
  std::vector<forms::FormIndex::RankedForm> all;
  for (size_t i = 0; i < fs.size(); ++i) {
    bool hit = false;
    double best = 0;
    for (const std::string& v : variants) {
      const std::vector<std::string> terms = docs.tokenizer().Tokenize(v);
      bool matches = false;
      for (const std::string& t : terms) {
        for (const text::Posting& p : docs.GetPostings(t)) {
          matches |= p.doc == i;
        }
      }
      if (!matches) continue;
      hit = true;
      best = std::max(best, docs.Score(static_cast<text::DocId>(i), terms));
    }
    if (hit) all.push_back(forms::FormIndex::RankedForm{i, best});
  }
  std::sort(all.begin(), all.end(),
            [](const forms::FormIndex::RankedForm& a,
               const forms::FormIndex::RankedForm& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.form < b.form;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST_F(FormsTest, SearchMatchesSortedReferenceUnderTies) {
  forms::FormIndex index(*dblp_->db, forms::GenerateForms(*dblp_->db));
  const std::string author_name =
      dblp_->db->table(dblp_->author).cell(0, 1).AsText();
  const std::string first = text::Tokenizer().Tokenize(author_name)[0];
  const size_t all = index.forms().size();
  size_t ties = 0;
  // Forms over the same tables with the same field names index as the
  // same document, so their scores tie.
  for (const std::string& query :
       {first + " paper", std::string("paper"), std::string("author title"),
        std::string("conference year writes"), std::string("absent")}) {
    for (const size_t k : {size_t{1}, size_t{3}, all}) {
      const auto got = index.Search(query, k);
      const auto want =
          ReferenceFormSearch(*dblp_->db, index.forms(), query, k);
      ASSERT_EQ(got.size(), want.size()) << query << " k=" << k;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].form, want[i].form)
            << query << " k=" << k << " rank " << i;
        EXPECT_EQ(got[i].score, want[i].score);
        ties += i > 0 && want[i].score == want[i - 1].score;
      }
    }
  }
  EXPECT_GT(ties, 0u) << "the forms must exercise tied scores";
}

}  // namespace
}  // namespace kws
