#include "core/infer/iqp.h"

#include <algorithm>
#include <cmath>

#include "common/topk.h"
#include "text/tokenizer.h"

namespace kws::infer {

using relational::ColumnId;
using relational::RowId;
using relational::Table;
using relational::ValueType;

namespace {

/// Probability descending, then the binding vector in lexicographic
/// order.
struct InterpretationOrder {
  bool operator()(const Interpretation& a, const Interpretation& b) const {
    if (a.probability != b.probability) return a.probability > b.probability;
    return a.bindings < b.bindings;
  }
};

}  // namespace

std::string Interpretation::ToString(
    const relational::TableSchema& schema,
    const std::vector<std::string>& keywords) const {
  std::string out;
  for (size_t i = 0; i < bindings.size() && i < keywords.size(); ++i) {
    if (i > 0) out += " AND ";
    out += schema.columns[bindings[i]].name + " ~ '" + keywords[i] + "'";
  }
  return out;
}

IqpRanker::IqpRanker(const relational::Database& db,
                     relational::TableId table,
                     const relational::QueryLog& log)
    : db_(db), table_(table) {
  const Table& t = db.table(table);
  column_prior_.assign(t.schema().columns.size(), 1.0);
  // Template prior: how often logged queries constrained each column.
  for (const relational::LoggedQuery& q : log) {
    for (const relational::LoggedPredicate& p : q.predicates) {
      if (p.column < column_prior_.size()) {
        column_prior_[p.column] += q.count;
      }
    }
  }
  double total = 0;
  for (double p : column_prior_) total += p;
  for (double& p : column_prior_) p /= total;
}

double IqpRanker::BindingProbability(const std::string& keyword,
                                     ColumnId column) const {
  const Table& t = db_.table(table_);
  text::Tokenizer tokenizer;
  // Occurrences of the keyword per column (counted over all rows).
  double in_column = 0, anywhere = 0;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    for (ColumnId c = 0; c < t.schema().columns.size(); ++c) {
      const relational::Value& v = t.cell(r, c);
      if (v.type() != ValueType::kText) continue;
      for (const std::string& tok : tokenizer.Tokenize(v.AsText())) {
        if (tok == keyword) {
          anywhere += 1;
          if (c == column) in_column += 1;
        }
      }
    }
  }
  const double cols = static_cast<double>(t.schema().columns.size());
  return (in_column + 0.1) / (anywhere + 0.1 * cols);
}

std::vector<Interpretation> IqpRanker::Rank(
    const std::vector<std::string>& keywords, size_t k) const {
  const Table& t = db_.table(table_);
  const size_t num_cols = t.schema().columns.size();
  if (keywords.empty() || k == 0) return {};
  // Precompute binding probabilities.
  std::vector<std::vector<double>> bind(keywords.size(),
                                        std::vector<double>(num_cols));
  for (size_t i = 0; i < keywords.size(); ++i) {
    for (ColumnId c = 0; c < num_cols; ++c) {
      bind[i][c] = BindingProbability(keywords[i], c);
    }
  }
  // Enumerate bindings (num_cols^keywords, small for entity tables);
  // keep top-k by probability.
  OrderedTopK<Interpretation, InterpretationOrder> top(k);
  std::vector<ColumnId> current(keywords.size(), 0);
  auto enumerate = [&](auto&& self, size_t i, double prob) -> void {
    if (i == keywords.size()) {
      Interpretation interp;
      interp.bindings = current;
      interp.probability = prob;
      top.Offer(std::move(interp));
      return;
    }
    for (ColumnId c = 0; c < num_cols; ++c) {
      if (c == t.schema().primary_key) continue;
      current[i] = c;
      self(self, i + 1, prob * bind[i][c] * column_prior_[c]);
    }
  };
  enumerate(enumerate, 0, 1.0);
  return top.TakeSorted();
}

}  // namespace kws::infer
