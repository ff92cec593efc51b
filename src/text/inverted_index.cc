#include "text/inverted_index.h"

#include <algorithm>
#include <cmath>

#include "common/topk.h"

namespace kws::text {

namespace {

/// Initial capacity for a brand-new posting list. Term frequencies are
/// Zipfian: most terms stay short, so a small reserve avoids the first
/// couple of grow-reallocations without over-committing memory on the
/// long vocabulary tail.
constexpr size_t kInitialPostingCapacity = 4;

/// Score descending, then doc id ascending.
struct ScoredDocOrder {
  bool operator()(const ScoredDoc& a, const ScoredDoc& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  }
};

}  // namespace

InvertedIndex::InvertedIndex(TokenizerOptions options)
    : tokenizer_(options) {}

void InvertedIndex::AddDocument(DocId doc, std::string_view content) {
  if (doc_lengths_.size() <= doc) {
    doc_lengths_.resize(doc + 1, 0);
    doc_seen_.resize(doc + 1, false);
  }
  if (!doc_seen_[doc]) {
    doc_seen_[doc] = true;
    ++num_docs_;
  }
  uint32_t added = 0;
  tokenizer_.ForEachToken(content, [&](std::string_view token) {
    ++added;
    auto it = postings_.find(token);
    if (it == postings_.end()) {
      // First sighting of the term: the only place the string is copied.
      it = postings_.emplace(std::string(token), PostingList()).first;
      it->second.Reserve(kInitialPostingCapacity);
    }
    it->second.Add(doc);
  });
  doc_lengths_[doc] += added;
}

const PostingList& InvertedIndex::GetPostings(std::string_view term) const {
  auto it = postings_.find(term);
  return it == postings_.end() ? empty_ : it->second;
}

size_t InvertedIndex::DocFreq(std::string_view term) const {
  return GetPostings(term).size();
}

double InvertedIndex::Idf(std::string_view term) const {
  const double n = static_cast<double>(num_docs());
  const double df = static_cast<double>(DocFreq(term));
  return std::log(1.0 + n / (1.0 + df));
}

uint32_t InvertedIndex::DocLength(DocId doc) const {
  return doc < doc_lengths_.size() ? doc_lengths_[doc] : 0;
}

double InvertedIndex::Score(
    DocId doc, const std::vector<std::string>& query_terms) const {
  double score = 0;
  const double len = std::max<uint32_t>(DocLength(doc), 1);
  for (const std::string& t : query_terms) {
    const PostingList& plist = GetPostings(t);
    const size_t i = SeekGE(PostingSpan(plist), 0, doc);
    if (i < plist.size() && plist.doc(i) == doc) {
      const double tf = 1.0 + std::log(static_cast<double>(plist.tf(i)));
      score += tf * Idf(t);
    }
  }
  return score / std::sqrt(len);
}

std::vector<ScoredDoc> InvertedIndex::Search(std::string_view query,
                                             size_t k) const {
  const std::vector<std::string> terms = tokenizer_.Tokenize(query);
  std::unordered_map<DocId, double> acc;
  for (const std::string& t : terms) {
    const double idf = Idf(t);
    for (const Posting& p : GetPostings(t)) {
      const double tf = 1.0 + std::log(static_cast<double>(p.tf));
      acc[p.doc] += tf * idf;
    }
  }
  OrderedTopK<ScoredDoc, ScoredDocOrder> top(k);
  for (const auto& [doc, raw] : acc) {  // the top-k is offer-order independent -- kwslint: allow(unordered-iteration)
    const double len = std::max<uint32_t>(DocLength(doc), 1);
    top.Offer(ScoredDoc{doc, raw / std::sqrt(len)});
  }
  return top.TakeSorted();
}

std::vector<ScoredDoc> InvertedIndex::SearchConjunctive(std::string_view query,
                                                        size_t k) const {
  const std::vector<std::string> terms = tokenizer_.Tokenize(query);
  if (terms.empty() || k == 0) return {};
  std::vector<PostingSpan> spans;
  spans.reserve(terms.size());
  for (const std::string& t : terms) {
    spans.emplace_back(GetPostings(t));
  }
  const std::vector<DocId> docs = IntersectLists(spans);
  OrderedTopK<ScoredDoc, ScoredDocOrder> top(k);
  for (DocId d : docs) top.Offer(ScoredDoc{d, Score(d, terms)});
  return top.TakeSorted();
}

std::vector<std::string> InvertedIndex::Vocabulary() const {
  std::vector<std::string> out;
  out.reserve(postings_.size());
  for (const auto& [term, plist] : postings_) out.push_back(term);  // sorted right below -- kwslint: allow(unordered-iteration)
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace kws::text
