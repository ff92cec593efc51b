#include "answers.h"

#include <cstring>
#include <sstream>

#include "text/tokenizer.h"

namespace servebench {

namespace {

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

template <typename T>
std::string Mismatch(const char* what, size_t rank, const T& got,
                     const T& want) {
  std::ostringstream os;
  os.precision(17);
  os << what;
  if (rank != static_cast<size_t>(-1)) os << " at rank " << rank;
  os << ": got " << got << ", want " << want;
  return os.str();
}

constexpr size_t kNoRank = static_cast<size_t>(-1);

std::string DiffTuples(size_t rank,
                       const std::vector<kws::relational::TupleId>& got,
                       const std::vector<kws::relational::TupleId>& want) {
  if (got.size() != want.size()) {
    return Mismatch("tuple count", rank, got.size(), want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].table != want[i].table || got[i].row != want[i].row) {
      std::ostringstream os;
      os << "tuple " << i << " at rank " << rank << ": got (" << got[i].table
         << "," << got[i].row << "), want (" << want[i].table << ","
         << want[i].row << ")";
      return os.str();
    }
  }
  return "";
}

}  // namespace

std::string RenderTuples(const kws::relational::Database& db,
                         const std::vector<kws::relational::TupleId>& tuples) {
  std::string out;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += " -- ";
    out += db.TupleToString(tuples[i]);
  }
  return out;
}

std::string DiffEngineResponses(const kws::engine::EngineResponse& got,
                                const kws::engine::EngineResponse& want) {
  if (got.status.code() != want.status.code()) {
    return "status: got " + got.status.ToString() + ", want " +
           want.status.ToString();
  }
  if (got.cleaned_query != want.cleaned_query) {
    return "cleaned query: got '" + JoinWords(got.cleaned_query) +
           "', want '" + JoinWords(want.cleaned_query) + "'";
  }
  if (got.query_was_corrected != want.query_was_corrected) {
    return "correction flag differs";
  }
  if (got.results.size() != want.results.size()) {
    return Mismatch("result count", kNoRank, got.results.size(),
                    want.results.size());
  }
  for (size_t i = 0; i < got.results.size(); ++i) {
    const kws::engine::EngineResult& g = got.results[i];
    const kws::engine::EngineResult& w = want.results[i];
    if (g.score != w.score) return Mismatch("score", i, g.score, w.score);
    if (std::string d = DiffTuples(i, g.tuples, w.tuples); !d.empty()) {
      return d;
    }
    if (g.description != w.description) {
      return Mismatch("description", i, g.description, w.description);
    }
  }
  if (got.suggestions != want.suggestions) {
    return "suggestions: got '" + JoinWords(got.suggestions) + "', want '" +
           JoinWords(want.suggestions) + "'";
  }
  return "";
}

std::string DiffXmlResponses(const kws::engine::XmlResponse& got,
                             const kws::engine::XmlResponse& want) {
  if (got.status.code() != want.status.code()) {
    return "status: got " + got.status.ToString() + ", want " +
           want.status.ToString();
  }
  if (got.results.size() != want.results.size()) {
    return Mismatch("result count", kNoRank, got.results.size(),
                    want.results.size());
  }
  for (size_t i = 0; i < got.results.size(); ++i) {
    const kws::engine::XmlResult& g = got.results[i];
    const kws::engine::XmlResult& w = want.results[i];
    if (g.anchor != w.anchor) return Mismatch("anchor", i, g.anchor, w.anchor);
    if (g.display_root != w.display_root) {
      return Mismatch("display root", i, g.display_root, w.display_root);
    }
    if (g.score != w.score) return Mismatch("score", i, g.score, w.score);
    if (g.snippet != w.snippet) {
      return Mismatch("snippet", i, g.snippet, w.snippet);
    }
  }
  if (got.clusters.size() != want.clusters.size()) {
    return Mismatch("cluster count", kNoRank, got.clusters.size(),
                    want.clusters.size());
  }
  for (size_t i = 0; i < got.clusters.size(); ++i) {
    const kws::analyze::ResultCluster& g = got.clusters[i];
    const kws::analyze::ResultCluster& w = want.clusters[i];
    if (g.label != w.label) return Mismatch("cluster label", i, g.label, w.label);
    if (g.results != w.results) return "cluster members differ at rank " +
                                       std::to_string(i);
    if (g.score != w.score) {
      return Mismatch("cluster score", i, g.score, w.score);
    }
  }
  return "";
}

std::string DiffSearchResults(const std::vector<kws::cn::SearchResult>& got,
                              const std::vector<kws::cn::SearchResult>& want) {
  if (got.size() != want.size()) {
    return Mismatch("result count", kNoRank, got.size(), want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].cn_index != want[i].cn_index) {
      return Mismatch("cn_index", i, got[i].cn_index, want[i].cn_index);
    }
    if (got[i].score != want[i].score) {
      return Mismatch("score", i, got[i].score, want[i].score);
    }
    if (std::string d = DiffTuples(i, got[i].tuples, want[i].tuples);
        !d.empty()) {
      return d;
    }
  }
  return "";
}

kws::engine::EngineResponse CombinedReference(
    const kws::relational::Database& combined, const std::string& query,
    size_t k) {
  kws::engine::EngineResponse r;
  r.cleaned_query = kws::text::Tokenizer().Tokenize(query);
  if (r.cleaned_query.size() > 16) r.cleaned_query.resize(16);
  kws::cn::SearchOptions so;
  so.k = k;
  for (kws::cn::SearchResult& sr :
       kws::cn::CnKeywordSearch(combined).Search(query, so, nullptr)) {
    kws::engine::EngineResult er;
    er.score = sr.score;
    er.description = RenderTuples(combined, sr.tuples);
    er.tuples = std::move(sr.tuples);
    r.results.push_back(std::move(er));
  }
  return r;
}

namespace {

/// FNV-1a over a sequence of fields; strings are length-prefixed and
/// doubles hashed by their bits, so no two distinct answers serialize
/// alike.
class Hasher {
 public:
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t Fingerprint(const kws::engine::EngineResponse& r) {
  Hasher h;
  h.U64(static_cast<uint64_t>(r.status.code()));
  h.U64(r.cleaned_query.size());
  for (const std::string& t : r.cleaned_query) h.Str(t);
  h.U64(r.query_was_corrected ? 1 : 0);
  h.U64(r.results.size());
  for (const kws::engine::EngineResult& e : r.results) {
    h.F64(e.score);
    h.U64(e.tuples.size());
    for (const kws::relational::TupleId& t : e.tuples) {
      h.U64(t.table);
      h.U64(t.row);
    }
    h.Str(e.description);
  }
  h.U64(r.suggestions.size());
  for (const std::string& s : r.suggestions) h.Str(s);
  return h.value();
}

uint64_t Fingerprint(const kws::engine::XmlResponse& r) {
  Hasher h;
  h.U64(static_cast<uint64_t>(r.status.code()));
  h.U64(r.results.size());
  for (const kws::engine::XmlResult& x : r.results) {
    h.U64(x.anchor);
    h.U64(x.display_root);
    h.F64(x.score);
    h.Str(x.snippet);
  }
  h.U64(r.clusters.size());
  for (const kws::analyze::ResultCluster& c : r.clusters) {
    h.Str(c.label);
    h.U64(c.results.size());
    for (kws::xml::XmlNodeId n : c.results) h.U64(n);
    h.F64(c.score);
  }
  return h.value();
}

}  // namespace servebench
