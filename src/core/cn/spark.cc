#include "core/cn/spark.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>

#include "common/topk.h"
#include "text/tokenizer.h"

namespace kws::cn {

namespace {

/// Per-row dampened score Sum_k (1 + ln tf) * idf — the unit the skyline
/// bounds are built from.
double NodeSparkScore(const TupleSets& ts, relational::TableId table,
                      relational::RowId row) {
  double s = 0;
  for (size_t k = 0; k < ts.num_keywords(); ++k) {
    const uint32_t tf = ts.RowTf(table, row, k);
    if (tf > 0) s += (1.0 + std::log(static_cast<double>(tf))) * ts.Idf(k);
  }
  return s;
}

double SizePenalty(size_t size, double lambda) {
  return 1.0 + lambda * (static_cast<double>(size) - 1.0);
}

/// Keyword-node lists of one CN, re-sorted by the SPARK node score.
struct CnLists {
  std::vector<uint32_t> kw_nodes;
  std::vector<std::vector<ScoredRow>> lists;  // score = NodeSparkScore
  bool alive = false;
};

CnLists BuildLists(const CandidateNetwork& cn, const TupleSets& ts) {
  CnLists out;
  out.alive = true;
  for (uint32_t n = 0; n < cn.nodes.size(); ++n) {
    if (cn.nodes[n].free()) continue;
    const auto& base = ts.Get(cn.nodes[n].table, cn.nodes[n].mask);
    if (base.empty()) {
      out.alive = false;
      return out;
    }
    std::vector<ScoredRow> list;
    list.reserve(base.size());
    for (const ScoredRow& sr : base) {
      list.push_back(
          ScoredRow{sr.row, NodeSparkScore(ts, cn.nodes[n].table, sr.row)});
    }
    std::sort(list.begin(), list.end(),
              [](const ScoredRow& a, const ScoredRow& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.row < b.row;
              });
    out.kw_nodes.push_back(n);
    out.lists.push_back(std::move(list));
  }
  out.alive = !out.kw_nodes.empty();
  return out;
}

}  // namespace

double SparkScore(const CandidateNetwork& cn, const TupleSets& ts,
                  const std::vector<relational::RowId>& rows, double lambda) {
  double score = 0;
  for (size_t k = 0; k < ts.num_keywords(); ++k) {
    uint64_t tf = 0;
    for (uint32_t n = 0; n < cn.nodes.size(); ++n) {
      tf += ts.RowTf(cn.nodes[n].table, rows[n], k);
    }
    if (tf > 0) {
      score += (1.0 + std::log(static_cast<double>(tf))) * ts.Idf(k);
    }
  }
  return score / SizePenalty(cn.size(), lambda);
}

double SparkUpperBound(const CandidateNetwork& cn, const TupleSets& ts,
                       const std::vector<uint32_t>& kw_nodes,
                       const std::vector<double>& node_scores, double lambda) {
  (void)ts;
  (void)kw_nodes;
  double sum = 0;
  for (double s : node_scores) sum += s;
  return sum / SizePenalty(cn.size(), lambda);
}

const char* SparkAlgorithmToString(SparkAlgorithm a) {
  switch (a) {
    case SparkAlgorithm::kNaive:
      return "naive";
    case SparkAlgorithm::kSkylineSweep:
      return "skyline-sweep";
    case SparkAlgorithm::kBlockPipeline:
      return "block-pipeline";
  }
  return "?";
}

std::vector<SearchResult> SparkSearch::Search(
    const std::string& query, const SparkOptions& options,
    std::vector<CandidateNetwork>* cns_out, SparkStats* stats) const {
  text::Tokenizer tokenizer;
  std::vector<std::string> keywords = tokenizer.Tokenize(query);
  if (keywords.size() > 16) keywords.resize(16);
  if (keywords.empty()) return {};
  TupleSets ts(db_, keywords);
  CnEnumOptions enum_opts;
  enum_opts.max_size = options.max_cn_size;
  std::vector<CandidateNetwork> cns = EnumerateCandidateNetworks(
      db_, ts.table_masks(), ts.full_mask(), enum_opts);
  if (stats != nullptr) stats->cns_enumerated = cns.size();
  if (options.k == 0) {
    // Nothing can enter an empty top-k: evaluate nothing.
    if (cns_out != nullptr) *cns_out = std::move(cns);
    return {};
  }

  OrderedTopK<SearchResult, SearchResultOrder> top(options.k);
  const double lambda = options.lambda;

  auto make_result = [&](size_t cn_index, const JoinedTree& jt,
                         double score) {
    SearchResult r;
    r.cn_index = cn_index;
    r.score = score;
    for (uint32_t i = 0; i < cns[cn_index].nodes.size(); ++i) {
      r.tuples.push_back(
          relational::TupleId{cns[cn_index].nodes[i].table, jt.rows[i]});
    }
    return r;
  };

  if (options.algorithm == SparkAlgorithm::kNaive) {
    for (size_t i = 0; i < cns.size(); ++i) {
      ExecStats es;
      auto results = ExecuteCn(db_, cns[i], ts, {}, SIZE_MAX, &es);
      if (stats != nullptr) stats->join_lookups += es.join_lookups;
      for (const JoinedTree& jt : results) {
        const double score = SparkScore(cns[i], ts, jt.rows, lambda);
        if (stats != nullptr) ++stats->candidates_scored;
        top.Offer(make_result(i, jt, score));
      }
    }
  } else {
    // Shared machinery for skyline-sweep and block-pipeline: a global
    // priority queue of (bound, cn, index-vector) where the vector indexes
    // either elements (sweep) or blocks (pipeline).
    std::vector<CnLists> lists(cns.size());
    for (size_t i = 0; i < cns.size(); ++i) lists[i] = BuildLists(cns[i], ts);

    const bool block_mode =
        options.algorithm == SparkAlgorithm::kBlockPipeline;
    const size_t bs = block_mode ? std::max<size_t>(options.block_size, 1) : 1;

    struct QueueItem {
      double bound;
      size_t cn;
      std::vector<size_t> idx;
      bool operator<(const QueueItem& o) const { return bound < o.bound; }
    };
    std::priority_queue<QueueItem> pq;
    std::vector<std::set<std::vector<size_t>>> visited(cns.size());

    auto block_bound = [&](size_t cn, const std::vector<size_t>& idx) {
      double sum = 0;
      for (size_t d = 0; d < idx.size(); ++d) {
        sum += lists[cn].lists[d][idx[d] * bs].score;
      }
      return sum / SizePenalty(cns[cn].size(), lambda);
    };

    for (size_t i = 0; i < cns.size(); ++i) {
      if (!lists[i].alive) continue;
      std::vector<size_t> zero(lists[i].kw_nodes.size(), 0);
      visited[i].insert(zero);
      pq.push(QueueItem{block_bound(i, zero), i, std::move(zero)});
    }

    // Verifies one element combination: pins keyword rows, joins, scores.
    auto verify = [&](size_t cn_index, const std::vector<size_t>& elem_idx) {
      const CandidateNetwork& cn = cns[cn_index];
      const CnLists& cl = lists[cn_index];
      double bound = 0;
      std::vector<std::optional<relational::RowId>> fixed(cn.nodes.size());
      for (size_t d = 0; d < elem_idx.size(); ++d) {
        bound += cl.lists[d][elem_idx[d]].score;
        fixed[cl.kw_nodes[d]] = cl.lists[d][elem_idx[d]].row;
      }
      bound /= SizePenalty(cn.size(), lambda);
      // Cheap bound first: skip the join when even the best-ranked result
      // the combination could yield loses — the bound, the pinned keyword
      // rows and row 0 at every free node. On a score tie with the worst
      // retained result this still prunes by tuples.
      SearchResult probe{.cn_index = cn_index, .tuples = {}, .score = bound};
      for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
        probe.tuples.push_back(
            relational::TupleId{cn.nodes[i].table, fixed[i].value_or(0)});
      }
      if (top.WouldReject(probe)) return;
      ExecStats es;
      auto results = ExecuteCn(db_, cn, ts, fixed, SIZE_MAX, &es);
      if (stats != nullptr) {
        stats->join_lookups += es.join_lookups;
        ++stats->candidates_scored;
      }
      for (const JoinedTree& jt : results) {
        top.Offer(
            make_result(cn_index, jt, SparkScore(cn, ts, jt.rows, lambda)));
      }
    };

    while (!pq.empty()) {
      QueueItem item = pq.top();
      pq.pop();
      if (stats != nullptr) ++stats->queue_pops;
      // The best-ranked result the item could still yield: its bound and
      // an empty tuple list. Rejected strictly below the worst retained
      // score, nothing left in the bound-ordered queue can enter: stop.
      // Rejected on a tie (by CN index), an equal-bound item of a
      // lower-index CN may still follow: drop only this item, which
      // bounds its successors.
      const SearchResult probe{
          .cn_index = item.cn, .tuples = {}, .score = item.bound};
      if (top.WouldReject(probe)) {
        if (item.bound < top.Worst().score) break;
        continue;
      }
      const CnLists& cl = lists[item.cn];
      if (block_mode) {
        // Enumerate every element combination inside this block combo.
        std::vector<size_t> elem(item.idx.size());
        auto enumerate = [&](auto&& self, size_t d) -> void {
          if (d == item.idx.size()) {
            verify(item.cn, elem);
            return;
          }
          const size_t begin = item.idx[d] * bs;
          const size_t end = std::min(begin + bs, cl.lists[d].size());
          for (size_t e = begin; e < end; ++e) {
            elem[d] = e;
            self(self, d + 1);
          }
        };
        enumerate(enumerate, 0);
      } else {
        verify(item.cn, item.idx);
      }
      // Successors: advance each dimension by one step (element or block).
      for (size_t d = 0; d < item.idx.size(); ++d) {
        const size_t next_start = (item.idx[d] + 1) * bs;
        if (next_start >= cl.lists[d].size()) continue;
        std::vector<size_t> next = item.idx;
        ++next[d];
        if (!visited[item.cn].insert(next).second) continue;
        pq.push(QueueItem{block_bound(item.cn, next), item.cn,
                          std::move(next)});
      }
    }
  }

  if (cns_out != nullptr) *cns_out = std::move(cns);
  return top.TakeSorted();
}

}  // namespace kws::cn
