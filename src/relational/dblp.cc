#include "relational/dblp.h"

#include <iterator>

#include "common/check.h"

namespace kws::relational {

namespace {

constexpr const char* kSeedTerms[] = {
    "keyword",    "search",     "database",   "relational", "query",
    "processing", "xml",        "graph",      "steiner",    "tree",
    "ranking",    "index",      "join",       "top",        "efficient",
    "effective",  "semantic",   "schema",     "structure",  "mining",
    "stream",     "parallel",   "distributed", "cloud",     "scalable",
    "optimization", "algorithm", "evaluation", "benchmark", "snippet",
    "cluster",    "clustering", "facet",      "exploration", "browsing",
    "completion", "cleaning",   "refinement", "rewriting",  "ambiguity",
    "candidate",  "network",    "tuple",      "answer",     "result",
    "spark",      "banks",      "discover",   "blinks",     "tastier",
    "proximity",  "authority",  "pagerank",   "tfidf",      "vector",
    "probabilistic", "skyline", "pipeline",   "monotonic",  "scoring",
    "lca",        "slca",       "elca",       "dewey",      "subtree",
    "entity",     "attribute",  "predicate",  "projection", "selection",
    "aggregate",  "cube",       "cell",       "form",       "template",
    "workload",   "statistics", "correlation", "inference", "learning",
    "spatial",    "temporal",   "uncertain",  "workflow",   "provenance",
    "storage",    "transaction", "concurrency", "recovery",  "partition",
    "replication", "consistency", "latency",  "throughput", "cache",
    "memory",     "disk",       "compression", "sampling",  "histogram",
    "cardinality", "selectivity", "cost",     "plan",       "operator",
    "hash",       "sort",       "merge",      "scan",       "filter",
    "federated",  "mediator",   "wrapper",    "ontology",   "taxonomy",
    "crawler",    "extraction", "integration", "linkage",   "dedup",
    "privacy",    "security",   "encryption", "audit",      "compliance",
    "visual",     "interactive", "interface", "usability",  "feedback"};

constexpr const char* kSyllables[] = {
    "ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mi", "nu",
    "pa", "qe", "ri", "so", "tu", "va", "wi", "xo", "yu", "za",
    "bel", "cor", "dun", "fer", "gal", "hem", "jin", "kol", "lum", "mor"};

constexpr const char* kFirstNames[] = {
    "james", "mary",  "john",   "patricia", "robert", "jennifer", "michael",
    "linda", "david", "susan",  "wei",      "yi",     "ziyang",   "xuemin",
    "jeff",  "anhai", "divesh", "surajit",  "gerhard", "hector",  "rakesh",
    "laura", "magda", "jiawei", "christos", "moshe",  "serge",    "yannis",
    "peter", "bruce", "elena",  "sihem",    "tova",   "renee",    "juliana",
    "fatma", "ihab",  "ashraf", "guoliang", "lei"};

constexpr const char* kLastNames[] = {
    "smith",  "chen",   "wang",    "liu",     "zhang",  "kumar",  "garcia",
    "miller", "davis",  "johnson", "lin",     "luo",    "qin",    "yu",
    "han",    "papakonstantinou",  "jagadish", "doan",  "naughton", "chaudhuri",
    "das",    "hristidis", "balmin", "koutrika", "demidova", "nandi", "li",
    "xu",     "sun",    "guo",     "bao",     "ling",   "lu",     "termehchy",
    "winslett", "kimelfeld", "sagiv", "weikum", "suchanek", "kasneci"};

constexpr const char* kConferenceSeries[] = {
    "sigmod", "vldb", "icde", "kdd", "www", "cikm", "edbt",
    "icdt",   "sigir", "wsdm", "sode", "damp"};

}  // namespace

std::vector<std::string> MakeVocabulary(size_t n) {
  std::vector<std::string> vocab;
  vocab.reserve(n);
  for (const char* t : kSeedTerms) {
    if (vocab.size() >= n) break;
    vocab.emplace_back(t);
  }
  Rng rng(7777);
  const size_t num_syllables = std::size(kSyllables);
  while (vocab.size() < n) {
    std::string w;
    const size_t parts = 2 + rng.Index(3);
    for (size_t i = 0; i < parts; ++i) w += kSyllables[rng.Index(num_syllables)];
    // Collisions across generated words are rare; dedup keeps determinism.
    bool dup = false;
    for (const std::string& v : vocab) {
      if (v == w) {
        dup = true;
        break;
      }
    }
    if (!dup) vocab.push_back(std::move(w));
  }
  return vocab;
}

std::vector<std::string> MakePersonNames(size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  const size_t nf = std::size(kFirstNames);
  const size_t nl = std::size(kLastNames);
  for (size_t i = 0; names.size() < n; ++i) {
    const size_t f = i % nf;
    const size_t l = (i / nf) % nl;
    const size_t suffix = i / (nf * nl);
    std::string name = std::string(kFirstNames[f]) + " " + kLastNames[l];
    if (suffix > 0) name += " " + std::to_string(suffix + 1);
    names.push_back(std::move(name));
  }
  return names;
}

DblpDatabase MakeDblpDatabase(const DblpOptions& options) {
  DblpDatabase out;
  out.db = std::make_unique<Database>();
  Database& db = *out.db;
  Rng rng(options.seed);

  // --- Schemas -------------------------------------------------------
  TableSchema conf_schema;
  conf_schema.name = "conference";
  conf_schema.columns = {{"cid", ValueType::kInt, false},
                         {"name", ValueType::kText, true},
                         {"year", ValueType::kInt, false}};
  conf_schema.primary_key = 0;
  out.conference = db.CreateTable(conf_schema).value();

  TableSchema author_schema;
  author_schema.name = "author";
  author_schema.columns = {{"aid", ValueType::kInt, false},
                           {"name", ValueType::kText, true}};
  author_schema.primary_key = 0;
  out.author = db.CreateTable(author_schema).value();

  TableSchema paper_schema;
  paper_schema.name = "paper";
  paper_schema.columns = {{"pid", ValueType::kInt, false},
                          {"title", ValueType::kText, true},
                          {"cid", ValueType::kInt, false}};
  paper_schema.primary_key = 0;
  out.paper = db.CreateTable(paper_schema).value();

  TableSchema writes_schema;
  writes_schema.name = "writes";
  writes_schema.columns = {{"wid", ValueType::kInt, false},
                           {"aid", ValueType::kInt, false},
                           {"pid", ValueType::kInt, false}};
  writes_schema.primary_key = 0;
  out.writes = db.CreateTable(writes_schema).value();

  TableSchema cite_schema;
  cite_schema.name = "cite";
  cite_schema.columns = {{"clid", ValueType::kInt, false},
                         {"citing", ValueType::kInt, false},
                         {"cited", ValueType::kInt, false}};
  cite_schema.primary_key = 0;
  out.cite = db.CreateTable(cite_schema).value();

  // --- Rows ----------------------------------------------------------
  Table& conf = db.table(out.conference);
  const size_t num_series = std::size(kConferenceSeries);
  for (size_t i = 0; i < options.num_conferences; ++i) {
    const char* series = kConferenceSeries[i % num_series];
    const int64_t year = 2000 + static_cast<int64_t>(i / num_series);
    Row r = {Value::Int(static_cast<int64_t>(i)), Value::Text(series),
             Value::Int(year)};
    conf.Append(std::move(r)).value();
  }

  Table& author = db.table(out.author);
  const std::vector<std::string> names =
      MakePersonNames(options.num_authors);
  for (size_t i = 0; i < options.num_authors; ++i) {
    author
        .Append({Value::Int(static_cast<int64_t>(i)), Value::Text(names[i])})
        .value();
  }

  out.vocabulary = MakeVocabulary(options.vocab_size);
  ZipfSampler zipf(options.vocab_size, options.zipf_theta);
  Table& paper = db.table(out.paper);
  for (size_t i = 0; i < options.num_papers; ++i) {
    const size_t terms = options.title_terms_min +
                         rng.Index(options.title_terms_max -
                                   options.title_terms_min + 1);
    std::string title;
    for (size_t t = 0; t < terms; ++t) {
      if (t > 0) title += ' ';
      title += out.vocabulary[zipf.Sample(rng)];
    }
    const int64_t cid =
        static_cast<int64_t>(rng.Index(options.num_conferences));
    paper
        .Append({Value::Int(static_cast<int64_t>(i)), Value::Text(title),
                 Value::Int(cid)})
        .value();
  }

  Table& writes = db.table(out.writes);
  int64_t wid = 0;
  for (size_t p = 0; p < options.num_papers; ++p) {
    const size_t mean = options.authors_per_paper;
    const size_t count = 1 + rng.Index(2 * mean > 1 ? 2 * mean - 1 : 1);
    // Distinct authors for one paper.
    std::vector<int64_t> chosen;
    for (size_t a = 0; a < count; ++a) {
      const int64_t aid =
          static_cast<int64_t>(rng.Index(options.num_authors));
      bool dup = false;
      for (int64_t c : chosen) dup |= (c == aid);
      if (dup) continue;
      chosen.push_back(aid);
      writes
          .Append({Value::Int(wid++), Value::Int(aid),
                   Value::Int(static_cast<int64_t>(p))})
          .value();
    }
  }

  Table& cite = db.table(out.cite);
  int64_t clid = 0;
  for (size_t p = 0; p < options.num_papers; ++p) {
    const size_t count = rng.Index(2 * options.cites_per_paper + 1);
    for (size_t c = 0; c < count; ++c) {
      const int64_t cited =
          static_cast<int64_t>(rng.Index(options.num_papers));
      if (cited == static_cast<int64_t>(p)) continue;  // no self-citation
      cite
          .Append({Value::Int(clid++), Value::Int(static_cast<int64_t>(p)),
                   Value::Int(cited)})
          .value();
    }
  }

  // --- Keys & indexes --------------------------------------------------
  Status s;
  s = db.AddForeignKey("paper", "cid", "conference", "cid");
  KWS_CHECK_MSG(s.ok(), s.ToString());
  s = db.AddForeignKey("writes", "aid", "author", "aid");
  KWS_CHECK_MSG(s.ok(), s.ToString());
  s = db.AddForeignKey("writes", "pid", "paper", "pid");
  KWS_CHECK_MSG(s.ok(), s.ToString());
  s = db.AddForeignKey("cite", "citing", "paper", "pid");
  KWS_CHECK_MSG(s.ok(), s.ToString());
  s = db.AddForeignKey("cite", "cited", "paper", "pid");
  KWS_CHECK_MSG(s.ok(), s.ToString());

  db.BuildTextIndexes();
  return out;
}

std::vector<RowInsert> MakeDblpInsertBatch(const DblpDatabase& dblp,
                                           const DblpInsertOptions& options) {
  const Database& db = *dblp.db;
  KWS_CHECK_MSG(!dblp.vocabulary.empty(),
                "insert batches draw titles from the base vocabulary");
  Rng rng(options.seed);
  std::vector<RowInsert> batch;

  const size_t nauth = db.table(dblp.author).num_rows();
  const size_t npaper = db.table(dblp.paper).num_rows();
  const size_t nconf = db.table(dblp.conference).num_rows();
  // The generator's pks equal the row index, so the next free pk of each
  // table is its current row count (holds inductively across batches).
  int64_t wid = static_cast<int64_t>(db.table(dblp.writes).num_rows());
  int64_t clid = static_cast<int64_t>(db.table(dblp.cite).num_rows());

  // New authors first: the papers' writes rows may reference them.
  const std::vector<std::string> names =
      MakePersonNames(nauth + options.num_authors);
  for (size_t i = 0; i < options.num_authors; ++i) {
    RowInsert ins;
    ins.table = dblp.author;
    ins.row = {Value::Int(static_cast<int64_t>(nauth + i)),
               Value::Text(names[nauth + i])};
    batch.push_back(std::move(ins));
  }

  ZipfSampler zipf(dblp.vocabulary.size(), options.zipf_theta);
  const size_t author_pool = nauth + options.num_authors;
  for (size_t i = 0; i < options.num_papers; ++i) {
    const int64_t pid = static_cast<int64_t>(npaper + i);
    const size_t terms = options.title_terms_min +
                         rng.Index(options.title_terms_max -
                                   options.title_terms_min + 1);
    std::string title;
    for (size_t t = 0; t < terms; ++t) {
      if (t > 0) title += ' ';
      title += dblp.vocabulary[zipf.Sample(rng)];
    }
    RowInsert paper;
    paper.table = dblp.paper;
    paper.row = {Value::Int(pid), Value::Text(title),
                 Value::Int(static_cast<int64_t>(rng.Index(nconf)))};
    batch.push_back(std::move(paper));

    // Distinct authors for the new paper, drawn from the grown pool.
    const size_t mean = options.authors_per_paper;
    const size_t count = 1 + rng.Index(2 * mean > 1 ? 2 * mean - 1 : 1);
    std::vector<int64_t> chosen;
    for (size_t a = 0; a < count; ++a) {
      const int64_t aid = static_cast<int64_t>(rng.Index(author_pool));
      bool dup = false;
      for (int64_t c : chosen) dup |= (c == aid);
      if (dup) continue;
      chosen.push_back(aid);
      RowInsert w;
      w.table = dblp.writes;
      w.row = {Value::Int(wid++), Value::Int(aid), Value::Int(pid)};
      batch.push_back(std::move(w));
    }

    // Citations out of the new paper: any already-present or
    // earlier-in-batch paper. The range [0, npaper + i) excludes pid, so
    // self-citation cannot occur.
    if (npaper + i == 0) continue;
    const size_t cites = rng.Index(2 * options.cites_per_paper + 1);
    for (size_t c = 0; c < cites; ++c) {
      RowInsert ci;
      ci.table = dblp.cite;
      ci.row = {Value::Int(clid++), Value::Int(pid),
                Value::Int(static_cast<int64_t>(rng.Index(npaper + i)))};
      batch.push_back(std::move(ci));
    }
  }
  return batch;
}

}  // namespace kws::relational
