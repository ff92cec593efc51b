#include "verify.h"

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "answers.h"
#include "core/cn/continual.h"

namespace servebench {

namespace {

constexpr size_t kMaxMessages = 8;

/// Keeps the first few failure messages.
class MessageLog {
 public:
  explicit MessageLog(std::vector<std::string>* out) : out_(out) {}
  void Add(std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (out_->size() < kMaxMessages) out_->push_back(std::move(message));
  }

 private:
  std::mutex mu_;
  std::vector<std::string>* out_;
};

/// The fingerprint of the reference answer to request `request` on the
/// fresh deployment at its current epoch.
uint64_t ReferenceFingerprint(const Deployment& fresh, const Inputs& inputs,
                              size_t request) {
  const std::string& query = inputs.TextAt(request);
  switch (inputs.workload()) {
    case Workload::kRelCold:
    case Workload::kRelHotWrites: {
      kws::engine::EngineOptions eo;
      eo.k = Shape::kTopK;
      eo.num_threads = Shape::kSearchThreads;
      return Fingerprint(fresh.engine->Search(query, eo));
    }
    case Workload::kRelSharded:
      return Fingerprint(CombinedReference(*fresh.sharded_corpus->combined,
                                           query, Shape::kTopK));
    case Workload::kXml: {
      kws::engine::XmlEngineOptions xo;
      xo.k = Shape::kTopK;
      return Fingerprint(fresh.xml->Search(query, xo));
    }
  }
  return 0;
}

/// Runs fn(i) for i in [0, n) on `threads` threads with static striding.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  threads = std::max<size_t>(1, std::min(threads, n));
  std::vector<std::jthread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
}

}  // namespace

Verification VerifyRun(const Inputs& inputs, const LoopResult& run,
                       size_t threads) {
  Verification v;
  MessageLog log(&v.messages);
  const std::unique_ptr<Deployment> fresh = BuildDeployment(inputs, 0);

  // Reads grouped by the epoch they were served at; within an epoch the
  // reference answer of each distinct query is computed once.
  std::map<uint64_t, std::vector<size_t>> by_epoch;
  for (size_t r = 0; r < run.reads.size(); ++r) {
    const ReadSample& s = run.reads[r];
    if (!s.ok) {
      ++v.failed_reads;
      log.Add("read " + std::to_string(s.request) + " ('" +
              inputs.TextAt(s.request) + "') was not answered OK");
      continue;
    }
    by_epoch[s.epoch].push_back(r);
  }

  auto check_epoch = [&](const std::vector<size_t>& reads) {
    std::map<uint32_t, std::vector<size_t>> by_query;
    for (size_t r : reads) {
      by_query[inputs.QueryAt(run.reads[r].request)].push_back(r);
    }
    std::vector<const std::vector<size_t>*> groups;
    for (const auto& [query, members] : by_query) groups.push_back(&members);
    std::vector<uint64_t> want(groups.size());
    ParallelFor(groups.size(), threads, [&](size_t g) {
      want[g] = ReferenceFingerprint(*fresh, inputs,
                                     run.reads[groups[g]->front()].request);
    });
    v.answers_checked += groups.size();
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t r : *groups[g]) {
        const ReadSample& s = run.reads[r];
        if (s.fingerprint == want[g]) continue;
        ++v.failed_reads;
        log.Add("read " + std::to_string(s.request) + " ('" +
                inputs.TextAt(s.request) + "') at epoch " +
                std::to_string(s.epoch) + " differs from a direct call");
      }
    }
  };

  uint64_t epoch = 0;
  if (by_epoch.count(epoch) != 0) check_epoch(by_epoch[epoch]);
  for (const WriteSample& w : run.writes) {
    if (!w.ok) {
      ++v.failed_writes;
      log.Add("write " + std::to_string(w.batch) + " failed");
      continue;
    }
    kws::Result<kws::relational::WriteReport> report =
        fresh->dblp->db->ApplyInserts(w.rows);
    if (!report.ok() || report.value().epoch != w.epoch) {
      ++v.failed_writes;
      log.Add("write " + std::to_string(w.batch) +
              " did not replay to the served epoch");
      continue;
    }
    epoch = w.epoch;
    bool standing_ok = w.standing.size() == inputs.standing().size();
    for (size_t q = 0; standing_ok && q < w.standing.size(); ++q) {
      kws::cn::ContinualOptions co;
      co.k = Shape::kTopK;
      co.num_threads = Shape::kSearchThreads;
      const kws::cn::ContinualQuery reference(
          *fresh->dblp->db, fresh->engine->Normalize(inputs.standing()[q]),
          co);
      const std::string d = DiffSearchResults(w.standing[q], reference.TopK());
      if (!d.empty()) {
        standing_ok = false;
        log.Add("standing query '" + inputs.standing()[q] + "' after write " +
                std::to_string(w.batch) + ": " + d);
      }
    }
    if (!standing_ok) ++v.failed_writes;
    if (by_epoch.count(epoch) != 0) check_epoch(by_epoch[epoch]);
  }
  // Reads at an epoch no successful write produced cannot be checked.
  for (const auto& [e, reads] : by_epoch) {
    if (e == 0) continue;
    bool produced = false;
    for (const WriteSample& w : run.writes) produced |= (w.ok && w.epoch == e);
    if (!produced) {
      v.failed_reads += reads.size();
      log.Add("reads served at unknown epoch " + std::to_string(e));
    }
  }
  return v;
}

}  // namespace servebench
