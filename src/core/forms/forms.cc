#include "core/forms/forms.h"

#include <algorithm>
#include <deque>
#include <set>
#include <tuple>
#include <unordered_map>

#include "common/topk.h"
#include "core/infer/correlation.h"
#include "graph/data_graph.h"
#include "graph/pagerank.h"

namespace kws::forms {

using relational::ColumnId;
using relational::RowId;
using relational::Table;
using relational::TableId;
using relational::ValueType;

std::string QueryForm::ToString(const relational::Database& db) const {
  std::string out;
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) out += " JOIN ";
    out += db.table(tables[i]).name();
  }
  out += " (";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += db.table(fields[i].table).name() + "." +
           db.table(fields[i].table).schema().columns[fields[i].column].name;
  }
  out += ")";
  return out;
}

std::vector<double> EntityQueriability(const relational::Database& db) {
  // Schema-level graph: one node per table; FK edges weighted by the
  // participation ratio of the traversal direction.
  graph::DataGraph schema_graph;
  for (TableId t = 0; t < db.num_tables(); ++t) {
    schema_graph.AddNode(db.table(t).name(), "");
  }
  for (uint32_t fk = 0; fk < db.foreign_keys().size(); ++fk) {
    const relational::ForeignKey& f = db.foreign_keys()[fk];
    const double w_fwd =
        std::max(infer::ParticipationRatio(db, fk, true), 1e-3);
    const double w_bwd =
        std::max(infer::ParticipationRatio(db, fk, false), 1e-3);
    schema_graph.AddEdge(f.table, f.ref_table, w_fwd, 0);
    schema_graph.AddEdge(f.ref_table, f.table, w_bwd, 0);
  }
  return graph::WeightedPageRank(schema_graph);
}

double AttributeQueriability(const relational::Database& db, TableId table,
                             ColumnId column) {
  const Table& t = db.table(table);
  if (t.num_rows() == 0) return 0;
  size_t non_null = 0;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    non_null += !t.cell(r, column).is_null();
  }
  return static_cast<double>(non_null) / static_cast<double>(t.num_rows());
}

double OperatorQueriability(const relational::Database& db, TableId table,
                            ColumnId column, FormOperator op) {
  const Table& t = db.table(table);
  if (t.num_rows() == 0) return 0;
  const ValueType type = t.schema().columns[column].type;
  // Distinct-value ratio = selectivity of equality predicates.
  std::set<std::string> distinct;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    distinct.insert(t.cell(r, column).ToString());
  }
  const double selectivity = static_cast<double>(distinct.size()) /
                             static_cast<double>(t.num_rows());
  const double base = AttributeQueriability(db, table, column);
  switch (op) {
    case FormOperator::kSelect:
      // Highly selective attributes identify instances (slide 63).
      return base * selectivity;
    case FormOperator::kProject:
      // Text fields are informative to read.
      return type == ValueType::kText ? base : base * 0.2;
    case FormOperator::kOrderBy:
      // Single-valued mandatory (we model: numeric) attributes.
      return type == ValueType::kText ? base * 0.1 : base;
    case FormOperator::kAggregate:
      // Numeric attributes aggregate.
      return (type == ValueType::kInt || type == ValueType::kReal)
                 ? base * selectivity
                 : 0.0;
  }
  return 0;
}

namespace {

/// Queriability descending, then (table, column, operator) ascending.
struct FormFieldOrder {
  bool operator()(const FormField& a, const FormField& b) const {
    if (a.queriability != b.queriability) {
      return a.queriability > b.queriability;
    }
    return std::tie(a.table, a.column, a.op) <
           std::tie(b.table, b.column, b.op);
  }
};

/// Score descending, then form index ascending.
struct RankedFormOrder {
  bool operator()(const FormIndex::RankedForm& a,
                  const FormIndex::RankedForm& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.form < b.form;
  }
};

struct Skeleton {
  std::vector<TableId> tables;
  std::vector<uint32_t> fks;

  std::string Key() const {
    std::vector<TableId> ts = tables;
    std::sort(ts.begin(), ts.end());
    std::vector<uint32_t> fs = fks;
    std::sort(fs.begin(), fs.end());
    std::string key = "T";
    for (TableId t : ts) key += std::to_string(t) + ",";
    key += "F";
    for (uint32_t f : fs) key += std::to_string(f) + ",";
    return key;
  }
};

}  // namespace

std::vector<QueryForm> GenerateForms(const relational::Database& db,
                                     const FormGenOptions& options) {
  const std::vector<double> entity_q = EntityQueriability(db);
  // Enumerate connected acyclic skeletons with each table at most once.
  std::vector<Skeleton> skeletons;
  std::set<std::string> seen;
  std::deque<Skeleton> queue;
  for (TableId t = 0; t < db.num_tables(); ++t) {
    Skeleton s;
    s.tables = {t};
    if (seen.insert(s.Key()).second) {
      queue.push_back(s);
      skeletons.push_back(s);
    }
  }
  while (!queue.empty()) {
    Skeleton s = std::move(queue.front());
    queue.pop_front();
    if (s.tables.size() >= options.max_tables) continue;
    for (TableId t : s.tables) {
      for (const relational::SchemaEdge& e : db.SchemaNeighbors(t)) {
        if (std::find(s.tables.begin(), s.tables.end(), e.other) !=
            s.tables.end()) {
          continue;  // each table once
        }
        Skeleton next = s;
        next.tables.push_back(e.other);
        next.fks.push_back(e.fk);
        if (seen.insert(next.Key()).second) {
          skeletons.push_back(next);
          queue.push_back(std::move(next));
        }
      }
    }
  }

  // Score skeletons: product of entity queriabilities times pairwise
  // relatedness (slides 60-61).
  std::vector<QueryForm> forms;
  for (const Skeleton& s : skeletons) {
    QueryForm form;
    form.tables = s.tables;
    form.fks = s.fks;
    form.skeleton_key = s.Key();
    form.queriability = 1.0;
    for (TableId t : s.tables) form.queriability *= entity_q[t];
    for (uint32_t fk : s.fks) {
      form.queriability *= std::max(infer::Relatedness(db, fk), 1e-3);
    }
    // Fields: most queriable (attribute, operator) pairs across tables.
    OrderedTopK<FormField, FormFieldOrder> top(options.max_fields);
    for (TableId t : s.tables) {
      const Table& table = db.table(t);
      for (ColumnId c = 0; c < table.schema().columns.size(); ++c) {
        if (c == table.schema().primary_key) continue;
        for (FormOperator op :
             {FormOperator::kSelect, FormOperator::kProject,
              FormOperator::kOrderBy, FormOperator::kAggregate}) {
          const double q =
              OperatorQueriability(db, t, c, op) *
              AttributeQueriability(db, t, c);
          if (q > 0) top.Offer(FormField{t, c, op, q});
        }
      }
    }
    form.fields = top.TakeSorted();
    forms.push_back(std::move(form));
  }
  std::sort(forms.begin(), forms.end(),
            [](const QueryForm& a, const QueryForm& b) {
              if (a.queriability != b.queriability) {
                return a.queriability > b.queriability;
              }
              return a.skeleton_key < b.skeleton_key;
            });
  if (forms.size() > options.max_forms) forms.resize(options.max_forms);
  return forms;
}

FormIndex::FormIndex(const relational::Database& db,
                     std::vector<QueryForm> forms)
    : db_(db), forms_(std::move(forms)) {
  for (size_t i = 0; i < forms_.size(); ++i) {
    std::string doc;
    for (TableId t : forms_[i].tables) {
      doc += db.table(t).name() + " ";
    }
    for (const FormField& f : forms_[i].fields) {
      doc += db.table(f.table).schema().columns[f.column].name + " ";
    }
    index_.AddDocument(static_cast<text::DocId>(i), doc);
  }
}

std::vector<FormIndex::RankedForm> FormIndex::Search(const std::string& query,
                                                     size_t k) const {
  // Variants: the raw query, plus copies where each data-matching keyword
  // is replaced by the names of the tables matching it (slide 57).
  const std::vector<std::string> tokens =
      index_.tokenizer().Tokenize(query);
  std::vector<std::string> variants = {query};
  for (const std::string& tok : tokens) {
    for (TableId t = 0; t < db_.num_tables(); ++t) {
      if (!db_.MatchRows(t, tok).empty()) {
        std::string variant;
        for (const std::string& other : tokens) {
          if (!variant.empty()) variant += ' ';
          variant += (other == tok) ? db_.table(t).name() : other;
        }
        variants.push_back(std::move(variant));
      }
    }
  }
  // Union of variant hits; keep each form's best score.
  std::unordered_map<size_t, double> best;
  for (const std::string& v : variants) {
    for (const text::ScoredDoc& d : index_.Search(v, forms_.size())) {
      double& s = best[d.doc];
      s = std::max(s, d.score);
    }
  }
  OrderedTopK<RankedForm, RankedFormOrder> top(k);
  for (const auto& [form, score] : best) {  // the top-k is offer-order independent -- kwslint: allow(unordered-iteration)
    top.Offer(RankedForm{form, score});
  }
  return top.TakeSorted();
}

std::vector<std::vector<FormIndex::RankedForm>> FormIndex::GroupBySkeleton(
    const std::vector<RankedForm>& ranked) const {
  std::vector<std::vector<RankedForm>> groups;
  std::unordered_map<std::string, size_t> group_of;
  for (const RankedForm& rf : ranked) {
    const std::string& key = forms_[rf.form].skeleton_key;
    auto [it, inserted] = group_of.emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(rf);
  }
  return groups;
}

}  // namespace kws::forms
