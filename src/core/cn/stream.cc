#include "core/cn/stream.h"

#include <set>
#include <utility>

#include "common/check.h"

namespace kws::cn {

StreamEvaluator::StreamEvaluator(const relational::Database& db,
                                 std::vector<CandidateNetwork> cns,
                                 TupleSets ts)
    : db_(db), cns_(std::move(cns)), ts_(std::move(ts)) {
  arrived_.resize(db.num_tables());
  for (relational::TableId t = 0; t < db.num_tables(); ++t) {
    arrived_[t].assign(db.table(t).num_rows(), false);
  }
}

bool StreamEvaluator::MarkArrived(relational::TupleId tuple) {
  KWS_CHECK_MSG(tuple.table < arrived_.size(), "arrival for unknown table");
  std::vector<bool>& seen = arrived_[tuple.table];
  if (tuple.row >= seen.size()) {
    // The database grew since construction (live inserts); extend the
    // bitmap to its current size.
    const size_t now = db_.table(tuple.table).num_rows();
    KWS_CHECK_MSG(tuple.row < now, "arrival for nonexistent row");
    seen.resize(now, false);
  }
  if (seen[tuple.row]) return false;
  seen[tuple.row] = true;
  ++arrived_count_;
  return true;
}

void StreamEvaluator::MarkAllArrived() {
  arrived_count_ = 0;
  for (relational::TableId t = 0; t < arrived_.size(); ++t) {
    arrived_[t].assign(db_.table(t).num_rows(), true);
    arrived_count_ += arrived_[t].size();
  }
}

Status StreamEvaluator::Probe(relational::TupleId tuple,
                              std::vector<SearchResult>* out,
                              StreamStats* stats,
                              const Deadline& deadline) const {
  const KeywordMask mask = ts_.RowMask(tuple.table, tuple.row);
  DeadlineChecker checker(deadline, /*stride=*/1);
  for (size_t c = 0; c < cns_.size(); ++c) {
    const CandidateNetwork& cn = cns_[c];
    // Within one arrival the same tree can be found through different
    // node positions the new tuple occupies; dedup by row vector.
    std::set<std::vector<relational::RowId>> seen;
    for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
      if (cn.nodes[i].table != tuple.table) continue;
      if (cn.nodes[i].mask != mask) continue;  // exact tuple-set semantics
      // Cancellation point per probe execution; the deadline also
      // threads into ExecuteCn so one oversized join cannot overshoot.
      if (checker.Expired()) {
        return Status::DeadlineExceeded(
            "deadline expired probing arrival (partial emission)");
      }
      std::vector<std::optional<relational::RowId>> fixed(cn.nodes.size());
      fixed[i] = tuple.row;
      ExecStats es;
      auto results = ExecuteCn(db_, cn, ts_, fixed, SIZE_MAX, &es, &arrived_,
                               &deadline);
      if (stats != nullptr) {
        ++stats->probes;
        stats->join_lookups += es.join_lookups;
      }
      for (const JoinedTree& jt : results) {
        if (!seen.insert(jt.rows).second) continue;
        SearchResult r;
        r.cn_index = c;
        r.score = jt.score;
        for (uint32_t n = 0; n < cn.nodes.size(); ++n) {
          r.tuples.push_back(
              relational::TupleId{cn.nodes[n].table, jt.rows[n]});
        }
        out->push_back(std::move(r));
        if (stats != nullptr) ++stats->results_emitted;
      }
      // A deadline expiry inside ExecuteCn silently truncates its trees;
      // surface it so the caller knows this arrival's emission is short.
      if (deadline.Expired()) {
        return Status::DeadlineExceeded(
            "deadline expired probing arrival (partial emission)");
      }
    }
  }
  return Status::OK();
}

Status StreamEvaluator::OnArrival(relational::TupleId tuple,
                                  std::vector<SearchResult>* out,
                                  StreamStats* stats,
                                  const Deadline& deadline) {
  if (!MarkArrived(tuple)) return Status::OK();  // duplicate arrival
  if (stats != nullptr) ++stats->arrivals;
  return Probe(tuple, out, stats, deadline);
}

std::vector<SearchResult> StreamEvaluator::OnArrival(
    relational::TupleId tuple, StreamStats* stats) {
  std::vector<SearchResult> out;
  // Infinite deadline: the only non-OK status is deadline expiry, so
  // this cannot drop results.
  const Status s = OnArrival(tuple, &out, stats, Deadline::Infinite());
  KWS_CHECK_MSG(s.ok(), s.ToString());
  return out;
}

}  // namespace kws::cn
