#include "core/refine/data_clouds.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/topk.h"

namespace kws::refine {

namespace {

/// All conjunctive result docs of `query`, sorted, plus per-doc scores.
std::vector<text::ScoredDoc> AllResults(const text::InvertedIndex& index,
                                        const std::string& query) {
  std::vector<text::ScoredDoc> results =
      index.SearchConjunctive(query, index.num_docs());
  std::sort(results.begin(), results.end(),
            [](const text::ScoredDoc& a, const text::ScoredDoc& b) {
              return a.doc < b.doc;
            });
  return results;
}

/// Sum of tf (kPopularity) or score-weighted tf*idf (kRelevance) of
/// `term` over the result docs. Returns the number of postings touched.
double TermWeight(const text::InvertedIndex& index, const std::string& term,
                  const std::vector<text::ScoredDoc>& results,
                  TermRanking ranking, uint64_t* scanned) {
  const text::PostingList& plist = index.GetPostings(term);
  double weight = 0;
  size_t i = 0;
  for (const text::Posting& p : plist) {
    if (scanned != nullptr) ++*scanned;
    while (i < results.size() && results[i].doc < p.doc) ++i;
    if (i == results.size()) break;
    if (results[i].doc != p.doc) continue;
    if (ranking == TermRanking::kPopularity) {
      weight += 1;  // result-document count; df-bounded for early stop
    } else {
      weight += results[i].score * p.tf * index.Idf(term);
    }
  }
  return weight;
}

/// Weight descending, then term ascending.
struct SuggestedTermOrder {
  bool operator()(const SuggestedTerm& a, const SuggestedTerm& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.term < b.term;
  }
};

using TermTopK = OrderedTopK<SuggestedTerm, SuggestedTermOrder>;

}  // namespace

std::vector<SuggestedTerm> SuggestTerms(const text::InvertedIndex& index,
                                        const std::string& query,
                                        TermRanking ranking, size_t k) {
  const std::vector<text::ScoredDoc> results = AllResults(index, query);
  if (results.empty() || k == 0) return {};
  std::unordered_set<std::string> query_terms;
  for (const std::string& t : index.tokenizer().Tokenize(query)) {
    query_terms.insert(t);
  }
  TermTopK top(k);
  for (std::string& term : index.Vocabulary()) {
    if (query_terms.count(term) > 0) continue;
    const double w = TermWeight(index, term, results, ranking, nullptr);
    if (w > 0) top.Offer(SuggestedTerm{std::move(term), w});
  }
  return top.TakeSorted();
}

std::vector<SuggestedTerm> FrequentCoOccurringTerms(
    const text::InvertedIndex& index, const std::string& query, size_t k,
    uint64_t* postings_scanned) {
  const std::vector<text::ScoredDoc> results = AllResults(index, query);
  if (results.empty() || k == 0) return {};
  std::unordered_set<std::string> query_terms;
  for (const std::string& t : index.tokenizer().Tokenize(query)) {
    query_terms.insert(t);
  }
  // Candidates ordered by document frequency, descending: df bounds the
  // achievable co-occurrence weight, enabling early termination.
  std::vector<std::string> vocab = index.Vocabulary();
  std::sort(vocab.begin(), vocab.end(),
            [&](const std::string& a, const std::string& b) {
              const size_t da = index.DocFreq(a), db = index.DocFreq(b);
              if (da != db) return da > db;
              return a < b;
            });
  TermTopK top(k);
  for (std::string& term : vocab) {
    // Upper bound: a term cannot co-occur in more result rows than its
    // total document frequency (tf >= 1 per doc). Probe with the bound
    // and the empty term, which ranks above every real term of that
    // weight: a tie with the worst retained term does not stop the scan,
    // since a later, lexicographically smaller term may still enter.
    if (top.WouldReject(
            SuggestedTerm{"", static_cast<double>(index.DocFreq(term))})) {
      break;  // all remaining terms have no larger df
    }
    if (query_terms.count(term) > 0) continue;
    const double w = TermWeight(index, term, results,
                                TermRanking::kPopularity, postings_scanned);
    if (w > 0) top.Offer(SuggestedTerm{std::move(term), w});
  }
  return top.TakeSorted();
}

}  // namespace kws::refine
