#include "core/cn/continual.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace kws::cn {

ContinualQuery::ContinualQuery(const relational::Database& db,
                               std::vector<std::string> keywords,
                               const ContinualOptions& options)
    : db_(db), keywords_(std::move(keywords)), options_(options) {
  TupleSets ts(db_, keywords_);
  // Infinite deadline: the build cannot be cut short.
  const Status s = RebuildWorkload(std::move(ts), Deadline::Infinite());
  KWS_CHECK_MSG(s.ok(), s.ToString());
}

Status ContinualQuery::Rebuild(const Deadline& deadline) {
  stale_ = false;
  TupleSets ts(db_, keywords_, nullptr, deadline);
  if (ts.truncated()) {
    stale_ = true;
    return Status::DeadlineExceeded("deadline expired rebuilding tuple sets");
  }
  return RebuildWorkload(std::move(ts), deadline);
}

Status ContinualQuery::RebuildWorkload(TupleSets ts, const Deadline& deadline) {
  CnEnumOptions eo;
  eo.max_size = options_.max_cn_size;
  eo.deadline = deadline;
  std::vector<CandidateNetwork> cns = EnumerateCandidateNetworks(
      db_, ts.table_masks(), ts.full_mask(), eo);
  if (deadline.Expired()) {
    stale_ = true;
    return Status::DeadlineExceeded("deadline expired enumerating CNs");
  }
  eval_ = std::make_unique<StreamEvaluator>(db_, std::move(cns),
                                            std::move(ts));
  eval_->MarkAllArrived();
  return EvaluateAll(deadline);
}

Status ContinualQuery::EvaluateAll(const Deadline& deadline) {
  results_.clear();
  const std::vector<CandidateNetwork>& cns = eval_->cns();
  const TupleSets& ts = eval_->tuple_sets();
  for (size_t c = 0; c < cns.size(); ++c) {
    if (deadline.Expired()) {
      stale_ = true;
      return Status::DeadlineExceeded("deadline expired evaluating CNs");
    }
    const CandidateNetwork& cn = cns[c];
    for (JoinedTree& jt : ExecuteCn(db_, cn, ts, {}, SIZE_MAX, nullptr,
                                    nullptr, &deadline)) {
      SearchResult r;
      r.cn_index = c;
      r.score = jt.score;
      r.tuples.reserve(cn.nodes.size());
      for (uint32_t n = 0; n < cn.nodes.size(); ++n) {
        r.tuples.push_back(relational::TupleId{cn.nodes[n].table, jt.rows[n]});
      }
      results_.push_back(std::move(r));
    }
    // ExecuteCn truncates silently on expiry; surface it.
    if (deadline.Expired()) {
      stale_ = true;
      return Status::DeadlineExceeded("deadline expired evaluating CNs");
    }
  }
  std::sort(results_.begin(), results_.end(), SearchResultOrder{});
  return Status::OK();
}

void ContinualQuery::RescoreAll() {
  const std::vector<CandidateNetwork>& cns = eval_->cns();
  const TupleSets& ts = eval_->tuple_sets();
  for (SearchResult& r : results_) {
    const CandidateNetwork& cn = cns[r.cn_index];
    // Exactly the ExecuteCn leaf arithmetic, so rescored standing trees
    // stay bit-identical to freshly materialized ones.
    double sum = 0;
    for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
      if (!cn.nodes[i].free()) {
        sum += ts.RowScore(cn.nodes[i].table, r.tuples[i].row);
      }
    }
    r.score = sum / static_cast<double>(cn.nodes.size());
  }
}

Status ContinualQuery::OnInsertBatch(
    const std::vector<relational::TupleId>& inserted, const Deadline& deadline,
    ContinualStats* stats) {
  if (stale_) {
    return Status::FailedPrecondition(
        "continual query is stale (a previous propagation was cut short); "
        "call Rebuild()");
  }
  if (stats != nullptr) {
    ++stats->batches;
    stats->inserts += inserted.size();
  }
  TupleSets& ts = eval_->tuple_sets();
  const std::vector<KeywordMask> old_masks = ts.table_masks();
  Status s = ts.ApplyInserts(db_, inserted, deadline);
  if (!s.ok()) {
    stale_ = true;
    return s;
  }
  // Mark the whole batch arrived before probing so a tree joining two or
  // more new tuples is visible to each member's probe (deduped below).
  std::vector<relational::TupleId> fresh;
  fresh.reserve(inserted.size());
  for (const relational::TupleId& tuple : inserted) {  // bounded by batch size -- kwslint: allow(deadline-loop)
    if (eval_->MarkArrived(tuple)) fresh.push_back(tuple);
  }
  if (ts.table_masks() != old_masks) {
    // The batch gave some table a keyword it did not match before: the
    // CN workload itself changes, so delta propagation is unsound.
    // Re-enumerate and re-evaluate (rare — it needs a term previously
    // absent from the whole table).
    if (stats != nullptr) ++stats->full_rebuilds;
    return RebuildWorkload(std::move(ts), deadline);
  }

  // Probe every new tuple against the post-insert state. Each probe
  // finds exactly the arrived trees its tuple participates in, so the
  // union over the batch is every tree containing >= 1 new tuple —
  // found once per new member, deduped below into a set that is
  // independent of probe order and thread count.
  const size_t old_count = results_.size();
  std::vector<SearchResult> found;
  Status probe_status = Status::OK();
  StreamStats probe_stats;
  if (options_.num_threads <= 1 || fresh.size() <= 1) {
    for (const relational::TupleId& tuple : fresh) {
      probe_status = eval_->Probe(tuple, &found, &probe_stats, deadline);
      if (!probe_status.ok()) break;
    }
  } else {
    ThreadPool pool(options_.num_threads);
    std::vector<std::vector<SearchResult>> per_worker(pool.size());
    std::vector<StreamStats> per_stats(pool.size());
    std::atomic<bool> expired{false};
    pool.RunOnAll([&](size_t w) {
      // Static striding: worker w owns batch items i with i % size == w.
      for (size_t i = w; i < fresh.size(); i += pool.size()) {
        if (expired.load(std::memory_order_relaxed)) return;
        const Status ps =
            eval_->Probe(fresh[i], &per_worker[w], &per_stats[w], deadline);
        if (!ps.ok()) expired.store(true, std::memory_order_relaxed);
      }
    });
    for (size_t w = 0; w < pool.size(); ++w) {  // bounded by thread count -- kwslint: allow(deadline-loop)
      for (SearchResult& r : per_worker[w]) found.push_back(std::move(r));
      probe_stats.probes += per_stats[w].probes;
      probe_stats.join_lookups += per_stats[w].join_lookups;
      probe_stats.results_emitted += per_stats[w].results_emitted;
    }
    if (expired.load(std::memory_order_relaxed)) {
      probe_status = Status::DeadlineExceeded(
          "deadline expired probing insert batch");
    }
  }
  if (stats != nullptr) {
    stats->probes += probe_stats.probes;
    stats->join_lookups += probe_stats.join_lookups;
  }
  if (!probe_status.ok()) {
    stale_ = true;
    return probe_status;
  }

  // Dedup across the batch by identity (cn_index, tuples); duplicates
  // are bitwise-equal results, so which copy survives cannot matter.
  std::set<std::pair<size_t, std::vector<relational::TupleId>>> seen;
  std::vector<SearchResult> unique_trees;
  for (SearchResult& r : found) {  // dedup of already-produced probes -- kwslint: allow(deadline-loop)
    if (seen.emplace(r.cn_index, r.tuples).second) {
      unique_trees.push_back(std::move(r));
    }
  }

  // The batch moved every IDF (the corpus grew), so rescore the standing
  // trees; the probed trees were scored against the post-insert tuple
  // sets already.
  RescoreAll();
  for (SearchResult& r : unique_trees) results_.push_back(std::move(r));  // bounded by batch output -- kwslint: allow(deadline-loop)
  std::sort(results_.begin(), results_.end(), SearchResultOrder{});
  if (stats != nullptr) {
    stats->trees_added += results_.size() - old_count;
    stats->rescored += old_count;
  }
  return Status::OK();
}

std::vector<SearchResult> ContinualQuery::TopK() const {
  const size_t n = std::min(options_.k, results_.size());
  return {results_.begin(), results_.begin() + static_cast<long>(n)};
}

}  // namespace kws::cn
