#include "core/analyze/aggregate.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/topk.h"

namespace kws::analyze {

using relational::ColumnId;
using relational::RowId;
using relational::Table;
using relational::Value;

std::string AggregateGroup::ToString(
    const relational::Database& db, relational::TableId table,
    const std::vector<ColumnId>& columns) const {
  std::string out;
  const auto& schema = db.table(table).schema();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ' ';
    out += schema.columns[columns[i]].name + "=";
    out += shared_values[i].has_value() ? shared_values[i]->ToString() : "*";
  }
  out += " (" + std::to_string(rows.size()) + " rows)";
  return out;
}

std::string CubeCell::ToString(const relational::Database& db,
                               relational::TableId table,
                               const std::vector<ColumnId>& columns) const {
  std::string out = "{";
  const auto& schema = db.table(table).schema();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.columns[columns[i]].name + ":";
    out += dims[i].has_value() ? dims[i]->ToString() : "*";
  }
  out += "}";
  return out;
}

namespace {

/// Keyword-coverage mask per row.
std::vector<uint32_t> RowMasks(const relational::Database& db,
                               relational::TableId table,
                               const std::vector<std::string>& keywords,
                               size_t num_rows) {
  std::vector<uint32_t> masks(num_rows, 0);
  for (size_t k = 0; k < keywords.size(); ++k) {
    for (RowId r : db.MatchRows(table, keywords[k])) {
      masks[r] |= (1u << k);
    }
  }
  return masks;
}

/// A cell's enumeration key in TopCells: the mask of its present
/// dimensions, then their values as strings (its group key).
std::pair<uint32_t, std::vector<std::string>> CellKey(const CubeCell& cell) {
  std::pair<uint32_t, std::vector<std::string>> key;
  for (size_t d = 0; d < cell.dims.size(); ++d) {
    if (!cell.dims[d].has_value()) continue;
    key.first |= 1u << d;
    key.second.push_back(cell.dims[d]->ToString());
  }
  return key;
}

/// Average relevance descending, then the enumeration key ascending.
struct CubeCellOrder {
  bool operator()(const CubeCell& a, const CubeCell& b) const {
    if (a.avg_relevance != b.avg_relevance) {
      return a.avg_relevance > b.avg_relevance;
    }
    return CellKey(a) < CellKey(b);
  }
};

}  // namespace

std::vector<AggregateGroup> AggregateKeywordSearch(
    const relational::Database& db, relational::TableId table,
    const std::vector<ColumnId>& interesting_columns,
    const std::vector<std::string>& keywords) {
  const Table& t = db.table(table);
  const uint32_t full = (1u << keywords.size()) - 1;
  const std::vector<uint32_t> masks =
      RowMasks(db, table, keywords, t.num_rows());

  // For every nonempty subset of interesting columns, group rows by their
  // values and keep covering groups.
  struct RawGroup {
    uint32_t subset = 0;  // bitmask over interesting_columns
    std::vector<std::optional<Value>> values;
    std::vector<RowId> rows;
  };
  std::vector<RawGroup> covering;
  const size_t nc = interesting_columns.size();
  for (uint32_t subset = 1; subset < (1u << nc); ++subset) {
    std::map<std::vector<std::string>, RawGroup> groups;
    for (RowId r = 0; r < t.num_rows(); ++r) {
      std::vector<std::string> key;
      std::vector<std::optional<Value>> values(nc);
      for (size_t c = 0; c < nc; ++c) {
        if ((subset >> c) & 1u) {
          const Value& v = t.cell(r, interesting_columns[c]);
          key.push_back(v.ToString());
          values[c] = v;
        }
      }
      RawGroup& g = groups[key];
      if (g.rows.empty()) {
        g.subset = subset;
        g.values = values;
      }
      g.rows.push_back(r);
    }
    for (auto& [key, g] : groups) {
      uint32_t cover = 0;
      for (RowId r : g.rows) cover |= masks[r];
      if (cover == full) covering.push_back(std::move(g));
    }
  }
  // Dominance pruning: drop a group when a strictly more specific
  // covering group agrees with it on all its bound attributes.
  std::vector<AggregateGroup> out;
  for (const RawGroup& g : covering) {
    bool dominated = false;
    for (const RawGroup& other : covering) {
      if (other.subset == g.subset ||
          (other.subset & g.subset) != g.subset) {
        continue;  // not strictly more specific
      }
      bool consistent = true;
      for (size_t c = 0; c < nc && consistent; ++c) {
        if ((g.subset >> c) & 1u) {
          consistent = other.values[c].has_value() &&
                       *other.values[c] == *g.values[c];
        }
      }
      if (consistent) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    AggregateGroup ag;
    ag.shared_values = g.values;
    ag.rows = g.rows;
    ag.specificity = static_cast<size_t>(__builtin_popcount(g.subset));
    out.push_back(std::move(ag));
  }
  std::sort(out.begin(), out.end(),
            [](const AggregateGroup& a, const AggregateGroup& b) {
              if (a.specificity != b.specificity) {
                return a.specificity > b.specificity;
              }
              if (a.rows.size() != b.rows.size()) {
                return a.rows.size() < b.rows.size();
              }
              return a.rows < b.rows;
            });
  return out;
}

std::vector<CubeCell> TopCells(const relational::Database& db,
                               relational::TableId table,
                               const std::vector<ColumnId>& dimensions,
                               const std::string& query, size_t k,
                               size_t min_support) {
  const Table& t = db.table(table);
  const std::vector<std::string> terms =
      db.TextIndex(table).tokenizer().Tokenize(query);
  // Per-row relevance.
  std::vector<double> relevance(t.num_rows(), 0);
  for (RowId r = 0; r < t.num_rows(); ++r) {
    relevance[r] = db.TextIndex(table).Score(r, terms);
  }
  OrderedTopK<CubeCell, CubeCellOrder> top(k);
  const size_t nd = dimensions.size();
  for (uint32_t subset = 0; subset < (1u << nd); ++subset) {
    std::map<std::vector<std::string>, CubeCell> cells;
    for (RowId r = 0; r < t.num_rows(); ++r) {
      std::vector<std::string> key;
      std::vector<std::optional<Value>> dims(nd);
      for (size_t d = 0; d < nd; ++d) {
        if ((subset >> d) & 1u) {
          const Value& v = t.cell(r, dimensions[d]);
          key.push_back(v.ToString());
          dims[d] = v;
        }
      }
      CubeCell& cell = cells[key];
      if (cell.rows.empty()) cell.dims = dims;
      cell.rows.push_back(r);
    }
    for (auto& [key, cell] : cells) {
      cell.support = cell.rows.size();
      if (cell.support < min_support) continue;
      double sum = 0;
      for (RowId r : cell.rows) sum += relevance[r];
      cell.avg_relevance = sum / static_cast<double>(cell.support);
      if (cell.avg_relevance <= 0) continue;
      top.Offer(std::move(cell));
    }
  }
  return top.TakeSorted();
}

}  // namespace kws::analyze
