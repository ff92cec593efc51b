#include "kwslint/rules.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "common/thread_pool.h"

namespace kws::lint {

namespace {

void Emit(const SourceFile& f, int line, const char* rule, std::string msg,
          std::vector<Diagnostic>* out) {
  if (f.Allowed(rule, line)) return;
  out->push_back(Diagnostic{f.path(), line, rule, std::move(msg)});
}

bool TokenIs(const std::vector<Token>& toks, size_t i, std::string_view s) {
  return i < toks.size() && toks[i].text == s;
}

/// True when tokens[i] is preceded by `std::` (member-access qualified).
bool PrecededByStd(const std::vector<Token>& toks, size_t i) {
  return i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std";
}

/// True when tokens[i] is preceded by `.` or `->` (a method call).
bool PrecededByMemberAccess(const std::vector<Token>& toks, size_t i) {
  if (i >= 1 && toks[i - 1].text == ".") return true;
  return i >= 2 && toks[i - 1].text == ">" && toks[i - 2].text == "-";
}

// --- raw-random -----------------------------------------------------------

void CheckRawRandom(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (f.PathStartsWith("src/common/random.")) return;
  const std::vector<Token>& toks = f.tokens();
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "srand") {
      Emit(f, toks[i].line, "raw-random",
           "srand seeds global state; all randomness must flow through "
           "kws::Rng with an explicit seed",
           out);
    } else if (t == "random_device" || t == "mt19937" || t == "mt19937_64" ||
               t == "default_random_engine") {
      Emit(f, toks[i].line, "raw-random",
           "std::" + t + " breaks deterministic replay; use kws::Rng / "
           "SplitSeed instead",
           out);
    } else if (t == "rand" &&
               (PrecededByStd(toks, i) || TokenIs(toks, i + 1, "("))) {
      Emit(f, toks[i].line, "raw-random",
           "rand() is nondeterministic across runs; use kws::Rng", out);
    } else if (t == "time" && TokenIs(toks, i + 1, "(") &&
               (TokenIs(toks, i + 2, "nullptr") ||
                TokenIs(toks, i + 2, "NULL") || TokenIs(toks, i + 2, "0")) &&
               TokenIs(toks, i + 3, ")")) {
      Emit(f, toks[i].line, "raw-random",
           "wall-clock seeds make runs irreproducible; use an explicit "
           "kws::Rng seed",
           out);
    }
  }
}

// --- no-throw -------------------------------------------------------------

void CheckNoThrow(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (f.TopDir() != "src") return;
  for (const Token& t : f.tokens()) {
    if (t.text == "throw") {
      Emit(f, t.line, "no-throw",
           "library paths do not throw; return kws::Status / kws::Result",
           out);
    }
  }
}

// --- raw-thread -----------------------------------------------------------

void CheckRawThread(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (f.PathStartsWith("src/common/thread_pool.")) return;
  const std::vector<Token>& toks = f.tokens();
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if ((t == "thread" || t == "jthread" || t == "async") &&
        PrecededByStd(toks, i)) {
      Emit(f, toks[i].line, "raw-thread",
           "std::" + t + " outside ThreadPool loses the SplitSeed-per-"
           "worker determinism contract; use kws::ThreadPool",
           out);
    } else if (t == "detach" && PrecededByMemberAccess(toks, i) &&
               TokenIs(toks, i + 1, "(")) {
      Emit(f, toks[i].line, "raw-thread",
           "detached threads outlive their pool and break deterministic "
           "shutdown; join via kws::ThreadPool",
           out);
    }
  }
}

// --- sleep ----------------------------------------------------------------

void CheckSleep(const SourceFile& f, std::vector<Diagnostic>* out) {
  const std::string dir = f.TopDir();
  if (dir != "src" && dir != "tests" && dir != "bench") return;
  for (const Token& tok : f.tokens()) {
    const std::string& t = tok.text;
    if (t == "sleep_for" || t == "sleep_until") {
      Emit(f, tok.line, "sleep",
           "std::this_thread::" + t + " is a fixed wait on real time (a "
           "slow, flaky test or a model in the request path); wait on a "
           "latch or an injected clock instead",
           out);
    }
  }
}

// --- no-iostream ----------------------------------------------------------

void CheckNoIostream(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (f.TopDir() != "src") return;
  const std::vector<Token>& toks = f.tokens();
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if ((t == "cout" || t == "cerr" || t == "clog") &&
        PrecededByStd(toks, i)) {
      Emit(f, toks[i].line, "no-iostream",
           "library code reports through kws::Status / kws::Metrics, not "
           "std::" + t,
           out);
    }
  }
}

// --- header-guard ---------------------------------------------------------

std::string ExpectedGuard(const std::string& path) {
  std::string rel = path;
  if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
  std::string guard = "KWDB_";
  for (char c : rel) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

/// Splits a preprocessor line into (directive, first argument).
std::pair<std::string, std::string> ParseDirective(const std::string& code) {
  std::string directive;
  std::string arg;
  size_t i = code.find('#');
  if (i == std::string::npos) return {directive, arg};
  ++i;
  while (i < code.size() &&
         std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  while (i < code.size() &&
         (std::isalnum(static_cast<unsigned char>(code[i])) ||
          code[i] == '_')) {
    directive += code[i++];
  }
  while (i < code.size() &&
         std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  while (i < code.size() &&
         (std::isalnum(static_cast<unsigned char>(code[i])) ||
          code[i] == '_')) {
    arg += code[i++];
  }
  return {directive, arg};
}

void CheckHeaderGuard(const SourceFile& f, std::vector<Diagnostic>* out) {
  // Filename style applies to every linted file.
  const std::string& path = f.path();
  size_t slash = path.rfind('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  bool snake = true;
  size_t dot = base.rfind('.');
  for (char c : base.substr(0, dot)) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      snake = false;
    }
  }
  if (!snake) {
    Emit(f, 1, "header-guard",
         "filename '" + base + "' is not snake_case", out);
  }

  if (!f.IsHeader()) return;
  const std::string guard = ExpectedGuard(path);
  int ifndef_line = 0;
  int pp_index = 0;  // among non-continuation preprocessor lines
  bool guard_ok = true;
  for (size_t li = 0; li < f.lines().size(); ++li) {
    const Line& line = f.lines()[li];
    if (!line.preprocessor) continue;
    std::string_view code(line.code);
    if (code.find('#') == std::string_view::npos) continue;  // continuation
    auto [directive, arg] = ParseDirective(line.code);
    if (directive == "pragma" && arg == "once") {
      Emit(f, static_cast<int>(li) + 1, "header-guard",
           "#pragma once drifts from the project's #ifndef " + guard +
               " guard convention",
           out);
    }
    if (pp_index == 0) {
      ifndef_line = static_cast<int>(li) + 1;
      if (directive != "ifndef" || arg != guard) {
        Emit(f, ifndef_line, "header-guard",
             "first directive must be '#ifndef " + guard + "'", out);
        guard_ok = false;
      }
    } else if (pp_index == 1 && guard_ok) {
      if (directive != "define" || arg != guard) {
        Emit(f, static_cast<int>(li) + 1, "header-guard",
             "'#ifndef " + guard + "' must be followed by '#define " +
                 guard + "'",
             out);
      }
    }
    ++pp_index;
  }
  if (pp_index == 0) {
    Emit(f, 1, "header-guard", "missing include guard '#ifndef " + guard + "'",
         out);
  }
}

// --- mutex-style ----------------------------------------------------------

bool MutexNameOk(const std::string& name) {
  if (name == "mu_") return true;
  return name.size() >= 4 &&
         name.compare(name.size() - 4, 4, "_mu_") == 0;
}

void CheckMutexStyle(const SourceFile& f, std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = f.tokens();
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    // Field naming: `std::mutex name;` declarations in headers (locals in
    // .cc bodies are scoped and unexported, so only headers are checked).
    if (f.IsHeader() &&
        (t == "mutex" || t == "shared_mutex" || t == "recursive_mutex") &&
        PrecededByStd(toks, i) && i + 2 < toks.size()) {
      const Token& name = toks[i + 1];
      bool is_decl = !name.text.empty() &&
                     (std::isalpha(static_cast<unsigned char>(name.text[0])) ||
                      name.text[0] == '_') &&
                     TokenIs(toks, i + 2, ";");
      if (is_decl && !MutexNameOk(name.text)) {
        Emit(f, name.line, "mutex-style",
             "mutex field '" + name.text +
                 "' must be named 'mu_' or end in '_mu_' so guarded state "
                 "is greppable",
             out);
      }
    }
    // Manual lock()/unlock(): RAII guards only.
    if ((t == "lock" || t == "unlock") && PrecededByMemberAccess(toks, i) &&
        TokenIs(toks, i + 1, "(") && TokenIs(toks, i + 2, ")")) {
      Emit(f, toks[i].line, "mutex-style",
           "manual " + t + "() pairs leak on early return; use "
           "std::lock_guard or std::scoped_lock",
           out);
    }
  }
}

// --- doc-comment ----------------------------------------------------------

/// Collapses whitespace runs in `s` to single spaces and trims.
std::string NormalizeWs(const std::string& s) {
  std::string out;
  bool pending_space = false;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) out += ' ';
    pending_space = false;
    out += c;
  }
  return out;
}

std::vector<std::string> SplitWords(const std::string& s) {
  std::vector<std::string> words;
  std::string cur;
  for (char c : s) {
    if (c == ' ') {
      if (!cur.empty()) words.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) words.push_back(cur);
  return words;
}

/// Removes template-argument lists `<...>` so a `(` reliably signals a
/// function declaration (`std::function<void()> f;` must not look like
/// one). `operator<`/`<<`/`<=` are kept literal.
std::string StripAngles(const std::string& s) {
  std::string out;
  int depth = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    bool after_operator =
        i >= 8 && s.compare(i - 8, 8, "operator") == 0;
    if (c == '<' && !after_operator) {
      ++depth;
      continue;
    }
    if (c == '<' && after_operator && depth == 0) {
      out += c;
      continue;
    }
    if (c == '>' && depth > 0 && (i == 0 || s[i - 1] != '-')) {
      --depth;
      continue;
    }
    if (depth == 0) out += c;
  }
  return out;
}

/// Skips a leading `template <...>` prefix of a normalized statement.
std::string SkipTemplatePrefix(const std::string& s) {
  if (s.rfind("template", 0) != 0) return s;
  size_t i = s.find('<');
  if (i == std::string::npos) return s;
  int depth = 0;
  for (; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>' && --depth == 0) {
      ++i;
      break;
    }
  }
  while (i < s.size() && s[i] == ' ') ++i;
  return s.substr(i);
}

const std::set<std::string>& DeclQualifiers() {
  static const std::set<std::string> kQuals = {
      "inline",   "static",   "constexpr", "consteval", "constinit",
      "virtual",  "explicit", "extern",    "mutable",   "const",
  };
  return kQuals;
}

/// First word of `s` that is not a qualifier or `[[attribute]]`.
std::string FirstKeyword(const std::string& s) {
  for (const std::string& w : SplitWords(s)) {
    if (DeclQualifiers().count(w) != 0) continue;
    if (w.rfind("[[", 0) == 0) continue;
    return w;
  }
  return std::string();
}

/// True when the line immediately above `stmt_line` (1-based) carries a
/// Doxygen comment.
bool HasDocAbove(const SourceFile& f, int stmt_line) {
  int idx = stmt_line - 2;  // 0-based index of the preceding line
  return idx >= 0 && f.lines()[static_cast<size_t>(idx)].doxygen;
}

struct Ctx {
  enum Kind { kNamespace, kClass, kOpaque };
  Kind kind;
  bool public_access;
};

void CheckDocComment(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (f.TopDir() != "src" || !f.IsHeader()) return;

  // Macros: every first #define of a name needs a doc, guards excepted.
  std::set<std::string> seen_macros;
  for (size_t li = 0; li < f.lines().size(); ++li) {
    const Line& line = f.lines()[li];
    if (!line.preprocessor) continue;
    if (line.code.find('#') == std::string::npos) continue;
    auto [directive, arg] = ParseDirective(line.code);
    if (directive != "define" || arg.empty()) continue;
    if (arg.size() >= 3 && arg.compare(arg.size() - 3, 3, "_H_") == 0) {
      continue;  // include guard
    }
    if (!seen_macros.insert(arg).second) continue;  // #else redefinition
    int probe = static_cast<int>(li) - 1;
    while (probe >= 0 && f.lines()[static_cast<size_t>(probe)].preprocessor) {
      --probe;
    }
    if (probe < 0 || !f.lines()[static_cast<size_t>(probe)].doxygen) {
      Emit(f, static_cast<int>(li) + 1, "doc-comment",
           "public macro " + arg + " needs a /// doc comment", out);
    }
  }

  // Statement machine over the blanked code view. Preprocessor lines are
  // invisible to it (their braces/semicolons are not code structure).
  std::vector<Ctx> stack;
  std::string stmt;
  int stmt_line = 0;
  int paren = 0;

  auto at_public_scope = [&]() {
    if (stack.empty()) return true;  // file scope
    const Ctx& top = stack.back();
    if (top.kind == Ctx::kNamespace) return true;
    return top.kind == Ctx::kClass && top.public_access;
  };
  auto at_namespace_scope = [&]() {
    return stack.empty() || stack.back().kind == Ctx::kNamespace;
  };
  auto reset_stmt = [&]() {
    stmt.clear();
    stmt_line = 0;
  };

  auto require_doc = [&](int line, const std::string& what) {
    if (line > 0 && !HasDocAbove(f, line)) {
      Emit(f, line, "doc-comment",
           "public " + what + " needs a /// doc comment", out);
    }
  };

  auto end_statement = [&]() {
    std::string norm = NormalizeWs(stmt);
    const int line = stmt_line;
    reset_stmt();
    if (norm.empty() || !at_public_scope()) return;
    if (norm.find("= default") != std::string::npos ||
        norm.find("=default") != std::string::npos ||
        norm.find("= delete") != std::string::npos ||
        norm.find("=delete") != std::string::npos) {
      return;
    }
    norm = SkipTemplatePrefix(norm);
    const std::string kw = FirstKeyword(norm);
    if (kw == "friend" || kw == "static_assert" || kw.empty()) return;
    if (kw == "using" || kw == "typedef") {
      // Type aliases are API at namespace scope; class-scope usings
      // (iterator traits, base-ctor pulls) are implementation detail.
      if (at_namespace_scope()) require_doc(line, "type alias");
      return;
    }
    if (kw == "class" || kw == "struct" || kw == "enum" || kw == "union" ||
        kw == "namespace") {
      return;  // forward declaration
    }
    // Function declaration iff a '(' survives template-stripping and no
    // '=' precedes it (that would be a variable initializer calling a
    // function, e.g. `constexpr double kInf = f();`); data members and
    // variables are exempt.
    const std::string stripped = StripAngles(norm);
    const size_t paren_pos = stripped.find('(');
    const size_t eq = stripped.find('=');
    if (paren_pos != std::string::npos &&
        (eq == std::string::npos || paren_pos < eq)) {
      require_doc(line, "function declaration");
    }
  };

  auto classify_open = [&]() {
    std::string norm = SkipTemplatePrefix(NormalizeWs(stmt));
    const int line = stmt_line;
    reset_stmt();
    const std::string kw = FirstKeyword(norm);
    if (kw == "namespace" || norm.rfind("extern", 0) == 0 || kw.empty()) {
      stack.push_back(Ctx{Ctx::kNamespace, true});
      return;
    }
    if (kw == "class" || kw == "struct" || kw == "enum" || kw == "union") {
      if (at_public_scope() && line > 0 && !HasDocAbove(f, line)) {
        Emit(f, line, "doc-comment",
             "public type definition needs a /// doc comment", out);
      }
      if (kw == "class") {
        stack.push_back(Ctx{Ctx::kClass, false});
      } else if (kw == "struct") {
        stack.push_back(Ctx{Ctx::kClass, true});
      } else {
        stack.push_back(Ctx{Ctx::kOpaque, false});
      }
      return;
    }
    stack.push_back(Ctx{Ctx::kOpaque, false});  // function body, init, ...
  };

  for (size_t li = 0; li < f.lines().size(); ++li) {
    const Line& line = f.lines()[li];
    if (line.preprocessor) continue;
    const int lineno = static_cast<int>(li) + 1;
    const std::string& code = line.code;
    for (size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      if (!stack.empty() && stack.back().kind == Ctx::kOpaque) {
        if (c == '{') stack.push_back(Ctx{Ctx::kOpaque, false});
        if (c == '}') stack.pop_back();
        continue;
      }
      if (c == '(') {
        ++paren;
        stmt += c;
        continue;
      }
      if (c == ')') {
        --paren;
        stmt += c;
        continue;
      }
      if (c == '{' && paren == 0) {
        classify_open();
        continue;
      }
      if (c == '{') {  // brace inside parens: lambda body / brace-init
        stack.push_back(Ctx{Ctx::kOpaque, false});
        continue;
      }
      if (c == '}') {
        if (!stack.empty()) stack.pop_back();
        reset_stmt();
        continue;
      }
      if (c == ';' && paren == 0) {
        end_statement();
        continue;
      }
      if (c == ':' && !stack.empty() && stack.back().kind == Ctx::kClass &&
          (i + 1 >= code.size() || code[i + 1] != ':') &&
          (i == 0 || code[i - 1] != ':')) {
        std::string norm = NormalizeWs(stmt);
        if (norm == "public" || norm == "private" || norm == "protected") {
          stack.back().public_access = norm == "public";
          reset_stmt();
          continue;
        }
      }
      if (stmt_line == 0 && !std::isspace(static_cast<unsigned char>(c))) {
        stmt_line = lineno;
      }
      stmt += c;
    }
    if (!stmt.empty()) stmt += ' ';  // line break inside a statement
  }
}

// --- metric-name ----------------------------------------------------------

/// The registry/tracer entry points whose first string-literal argument
/// is a metric or span name.
const std::set<std::string>& MetricNameCalls() {
  static const std::set<std::string> kCalls = {
      "GetWindowedCounter", "GetWindowedHistogram", "BeginSpan",
      "TraceSpan",          "AddCounter",           "AddEvent",
  };
  return kCalls;
}

bool MetricNameOk(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (!(std::islower(u) || std::isdigit(u) || c == '_' || c == '.')) {
      return false;
    }
  }
  return true;
}

bool IsIdentToken(const Token& t) {
  return !t.text.empty() &&
         (std::isalpha(static_cast<unsigned char>(t.text[0])) ||
          t.text[0] == '_');
}

void CheckMetricName(const SourceFile& f, std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = f.tokens();
  for (size_t i = 0; i < toks.size(); ++i) {
    if (MetricNameCalls().count(toks[i].text) == 0) continue;
    // Call forms: `Name(...)`, or the RAII declaration
    // `TraceSpan var(tracer, "name")` with the variable between.
    size_t open = i + 1;
    if (TokenIs(toks, open, "(")) {
      // direct call
    } else if (toks[i].text == "TraceSpan" && open < toks.size() &&
               IsIdentToken(toks[open]) && TokenIs(toks, open + 1, "(")) {
      ++open;
    } else {
      continue;  // declaration, pointer type, forward reference, ...
    }
    // The name is the call's first string literal. The code view blanks
    // literal interiors, so a literal is two consecutive `"` tokens; the
    // raw text between their columns (same physical line only) is the
    // name. The scan runs to the call's matching close paren, so a
    // literal any number of wrapped lines below the open paren is still
    // checked (three-line clang-format wraps used to slip through).
    int call_depth = 1;
    for (size_t j = open + 1; j < toks.size() && call_depth > 0; ++j) {
      const std::string& t = toks[j].text;
      if (t == "(") {
        ++call_depth;
        continue;
      }
      if (t == ")") {
        --call_depth;
        continue;
      }
      if (t == ";") break;
      if (t != "\"") continue;
      if (j + 1 >= toks.size() || toks[j + 1].text != "\"" ||
          toks[j + 1].line != toks[j].line) {
        break;  // unterminated on this line (continuation); skip
      }
      const std::string& raw =
          f.lines()[static_cast<size_t>(toks[j].line) - 1].raw;
      const size_t begin = static_cast<size_t>(toks[j].col) + 1;
      const size_t end = static_cast<size_t>(toks[j + 1].col);
      const std::string name = raw.substr(begin, end - begin);
      if (!MetricNameOk(name)) {
        Emit(f, toks[j].line, "metric-name",
             "metric/span name \"" + name +
                 "\" must be dotted lowercase ([a-z0-9_.]+) so dashboards "
                 "and the trace renderer can rely on one naming scheme",
             out);
      }
      break;
    }
  }
}

// --- status-discard -------------------------------------------------------

/// Finds bare expression statements `chain.Foo(...);` where `Foo` is in
/// the model's Status/Result return-type index. The compiler's
/// [[nodiscard]] on Status/Result is the authoritative check; this rule
/// lets CI catch the same defect without a compile.
void CheckStatusDiscard(const SourceFile& f, const ProjectModel& model,
                        std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = f.tokens();
  bool stmt_start = true;
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == ";" || t == "{" || t == "}") {
      stmt_start = true;
      continue;
    }
    if (!stmt_start) continue;
    stmt_start = false;
    if (!IsIdentToken(toks[i])) continue;
    // Parse the access chain `ident (('.'|'->'|'::') ident)*`; the last
    // identifier names the called function. Two adjacent identifiers
    // (`return Foo`, `Status s`) end the chain before the call, so
    // consumed results never match.
    size_t j = i;
    std::string last = toks[j].text;
    while (true) {
      if ((TokenIs(toks, j + 1, ".") || TokenIs(toks, j + 1, "::")) &&
          j + 2 < toks.size() && IsIdentToken(toks[j + 2])) {
        j += 2;
        last = toks[j].text;
        continue;
      }
      if (TokenIs(toks, j + 1, "-") && TokenIs(toks, j + 2, ">") &&
          j + 3 < toks.size() && IsIdentToken(toks[j + 3])) {
        j += 3;
        last = toks[j].text;
        continue;
      }
      break;
    }
    if (!TokenIs(toks, j + 1, "(")) continue;
    if (!model.IsStatusFunction(last)) continue;
    // Discarded iff the statement ends right after the call's close paren.
    int depth = 0;
    size_t k = j + 1;
    for (; k < toks.size(); ++k) {
      if (toks[k].text == "(") ++depth;
      if (toks[k].text == ")" && --depth == 0) break;
    }
    if (k < toks.size() && TokenIs(toks, k + 1, ";")) {
      Emit(f, toks[j].line, "status-discard",
           last + "() returns kws::Status/Result; check it, propagate it, "
           "or discard explicitly with (void)",
           out);
    }
  }
}

// --- unordered-iteration --------------------------------------------------

void CheckUnorderedIteration(const SourceFile& f, const ProjectModel& model,
                             std::vector<Diagnostic>* out) {
  if (f.TopDir() != "src") return;
  const std::set<std::string>& names = model.UnorderedNamesVisible(f.path());
  if (names.empty()) return;
  const std::vector<Token>& toks = f.tokens();
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "for" || !TokenIs(toks, i + 1, "(")) continue;
    // Range-for: `for ( decl : expr )` — find the depth-1 ':' (the
    // tokenizer fuses '::', so scope operators never match) and the
    // matching close paren.
    int depth = 0;
    size_t colon = 0;
    size_t close = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "(") {
        ++depth;
      } else if (t == ")") {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (t == ":" && depth == 1 && colon == 0) {
        colon = j;
      }
    }
    if (colon == 0 || close == 0 || close <= colon + 1) continue;
    // Only a range expression that is a plain id-expression (possibly a
    // member chain) can be resolved against the declaration index; calls
    // and subscripts yield values the index does not describe.
    const Token& range_end = toks[close - 1];
    if (!IsIdentToken(range_end)) continue;
    if (names.count(range_end.text) == 0) continue;
    Emit(f, range_end.line, "unordered-iteration",
         "range-for over unordered container '" + range_end.text +
             "' is iteration-order nondeterministic; iterate a sorted "
             "snapshot on result paths (or justify with an allow)",
         out);
  }
}

// --- deadline-loop --------------------------------------------------------

/// Flags outermost while/for loops inside a .cc function definition that
/// takes a Deadline/DeadlineChecker parameter when the loop neither polls
/// nor forwards any deadline-ish local/parameter. Nested loops inherit
/// the enclosing loop's verdict (an outer poll bounds them).
void CheckDeadlineLoop(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (f.TopDir() != "src" || f.IsHeader()) return;
  const std::vector<Token>& toks = f.tokens();
  const size_t n = toks.size();
  for (size_t i = 0; i < n; ++i) {
    if (toks[i].text != "{") continue;
    // A function definition: `( params )` [qualifiers] `{`.
    size_t p = i;
    while (p > 0 && (toks[p - 1].text == "const" ||
                     toks[p - 1].text == "noexcept" ||
                     toks[p - 1].text == "override" ||
                     toks[p - 1].text == "mutable")) {
      --p;
    }
    if (p == 0 || toks[p - 1].text != ")") continue;
    size_t open = n;
    int d = 0;
    for (size_t k = p; k-- > 0;) {
      if (toks[k].text == ")") ++d;
      if (toks[k].text == "(" && --d == 0) {
        open = k;
        break;
      }
    }
    if (open == n || open == 0) continue;
    const std::string& before = toks[open - 1].text;
    if (before == "if" || before == "for" || before == "while" ||
        before == "switch" || before == "catch") {
      continue;
    }
    bool has_deadline = false;
    for (size_t k = open + 1; k + 1 < p; ++k) {
      if (toks[k].text == "Deadline" || toks[k].text == "DeadlineChecker") {
        has_deadline = true;
        break;
      }
    }
    if (!has_deadline) continue;
    size_t body_end = n;
    int bd = 0;
    for (size_t k = i; k < n; ++k) {
      if (toks[k].text == "{") ++bd;
      if (toks[k].text == "}" && --bd == 0) {
        body_end = k;
        break;
      }
    }
    if (body_end == n) continue;
    // Deadline-ish names: parameters plus locals declared in the body
    // (`DeadlineChecker checker(...)`). `Expired` covers member fields.
    std::set<std::string> names = {"Expired"};
    auto collect = [&](size_t from, size_t to) {
      for (size_t k = from; k < to; ++k) {
        if (toks[k].text != "Deadline" &&
            toks[k].text != "DeadlineChecker") {
          continue;
        }
        size_t m = k + 1;
        while (m < to && (toks[m].text == "&" || toks[m].text == "*" ||
                          toks[m].text == "const")) {
          ++m;
        }
        if (m < to && IsIdentToken(toks[m])) names.insert(toks[m].text);
      }
    };
    collect(open + 1, p - 1);
    collect(i + 1, body_end);
    // Walk the body's outermost loops.
    for (size_t k = i + 1; k < body_end; ++k) {
      const std::string& t = toks[k].text;
      if ((t != "while" && t != "for") || !TokenIs(toks, k + 1, "(")) {
        continue;
      }
      size_t hdr_end = n;
      int hd = 0;
      for (size_t m = k + 1; m < body_end; ++m) {
        if (toks[m].text == "(") ++hd;
        if (toks[m].text == ")" && --hd == 0) {
          hdr_end = m;
          break;
        }
      }
      if (hdr_end == n) break;
      size_t loop_end = hdr_end;
      if (TokenIs(toks, hdr_end + 1, "{")) {
        int ld = 0;
        for (size_t m = hdr_end + 1; m < body_end; ++m) {
          if (toks[m].text == "{") ++ld;
          if (toks[m].text == "}" && --ld == 0) {
            loop_end = m;
            break;
          }
        }
      } else {
        while (loop_end < body_end && toks[loop_end].text != ";") {
          ++loop_end;
        }
      }
      bool polls = false;
      for (size_t m = k; m <= loop_end && m < body_end; ++m) {
        if (names.count(toks[m].text) != 0) {
          polls = true;
          break;
        }
      }
      if (!polls) {
        Emit(f, toks[k].line, "deadline-loop",
             "loop in a Deadline-taking function never polls or forwards "
             "the deadline; add a DeadlineChecker cancellation point (or "
             "justify with an allow if provably bounded)",
             out);
      }
      k = loop_end;
    }
    i = body_end;
  }
}

// --- allow-justification --------------------------------------------------

void CheckAllowJustification(const SourceFile& f,
                             std::vector<Diagnostic>* out) {
  for (size_t li = 0; li < f.lines().size(); ++li) {
    const std::string& c = f.lines()[li].comment;
    if (c.find("kwslint:") == std::string::npos) continue;
    if (c.find("allow(") == std::string::npos) continue;
    // Strip every `kwslint: [file-]allow(...)` annotation; whatever word
    // content remains is the justification.
    std::string rest = c;
    size_t pos;
    while ((pos = rest.find("kwslint:")) != std::string::npos) {
      size_t close = rest.find(')', pos);
      if (close == std::string::npos) {
        rest.erase(pos);
        break;
      }
      rest.erase(pos, close - pos + 1);
    }
    bool has_word = false;
    for (char ch : rest) {
      if (std::isalnum(static_cast<unsigned char>(ch))) {
        has_word = true;
        break;
      }
    }
    if (!has_word) {
      Emit(f, static_cast<int>(li) + 1, "allow-justification",
           "kwslint allow() needs a short justification in the same "
           "comment (e.g. `// benches need wall-clock -- kwslint: "
           "allow(raw-random)`)",
           out);
    }
  }
}

}  // namespace

// --- include-cycle --------------------------------------------------------

void CheckIncludeCycles(const std::vector<SourceFile>& files,
                        const ProjectModel& model,
                        std::vector<Diagnostic>* out) {
  const std::map<std::string, std::vector<IncludeEdge>>& g =
      model.IncludeGraph();
  // Tarjan SCC, visiting roots in sorted path order so component
  // discovery (and thus reporting) is deterministic.
  std::map<std::string, int> index;
  std::map<std::string, int> low;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> cycles;
  int counter = 0;
  std::function<void(const std::string&)> dfs = [&](const std::string& v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    on_stack.insert(v);
    auto it = g.find(v);
    if (it != g.end()) {
      for (const IncludeEdge& e : it->second) {
        if (index.count(e.target) == 0) {
          dfs(e.target);
          low[v] = std::min(low[v], low[e.target]);
        } else if (on_stack.count(e.target) != 0) {
          low[v] = std::min(low[v], index[e.target]);
        }
      }
    }
    if (low[v] == index[v]) {
      std::vector<std::string> scc;
      while (true) {
        std::string w = stack.back();
        stack.pop_back();
        on_stack.erase(w);
        scc.push_back(w);
        if (w == v) break;
      }
      bool self_loop = false;
      if (scc.size() == 1 && it != g.end()) {
        for (const IncludeEdge& e : it->second) {
          if (e.target == v) self_loop = true;
        }
      }
      if (scc.size() > 1 || self_loop) {
        std::sort(scc.begin(), scc.end());
        cycles.push_back(std::move(scc));
      }
    }
  };
  for (const auto& [node, edges] : g) {
    (void)edges;
    if (index.count(node) == 0) dfs(node);
  }

  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : files) by_path[f.path()] = &f;
  for (const std::vector<std::string>& scc : cycles) {
    const std::string& rep = scc.front();
    std::set<std::string> members(scc.begin(), scc.end());
    // Anchor the diagnostic on rep's first #include into the component.
    int line = 1;
    auto it = g.find(rep);
    if (it != g.end()) {
      for (const IncludeEdge& e : it->second) {
        if (members.count(e.target) != 0) {
          line = e.line;
          break;
        }
      }
    }
    std::string chain;
    for (const std::string& m : scc) chain += m + " -> ";
    chain += rep;
    Diagnostic d{rep, line, "include-cycle",
                 "src/ include cycle: " + chain +
                     "; break it with a forward declaration or an "
                     "interface split"};
    auto fit = by_path.find(rep);
    if (fit != by_path.end() && fit->second->Allowed(d.rule, line)) continue;
    out->push_back(std::move(d));
  }
}

std::vector<std::string> RuleIds() {
  return {"raw-random",          "no-throw",
          "raw-thread",          "sleep",
          "no-iostream",         "doc-comment",
          "header-guard",        "mutex-style",
          "metric-name",         "status-discard",
          "unordered-iteration", "deadline-loop",
          "allow-justification", "include-cycle"};
}

std::vector<Diagnostic> RunRules(const SourceFile& file,
                                 const ProjectModel& model) {
  std::vector<Diagnostic> out;
  CheckRawRandom(file, &out);
  CheckNoThrow(file, &out);
  CheckRawThread(file, &out);
  CheckSleep(file, &out);
  CheckNoIostream(file, &out);
  CheckDocComment(file, &out);
  CheckHeaderGuard(file, &out);
  CheckMutexStyle(file, &out);
  CheckMetricName(file, &out);
  CheckStatusDiscard(file, model, &out);
  CheckUnorderedIteration(file, model, &out);
  CheckDeadlineLoop(file, &out);
  CheckAllowJustification(file, &out);
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

std::vector<Diagnostic> RunRules(const SourceFile& file) {
  return RunRules(file, ProjectModel::Build({file}));
}

std::vector<Diagnostic> LintProject(
    const std::vector<std::pair<std::string, std::string>>& files,
    int jobs) {
  std::vector<std::pair<std::string, std::string>> sorted = files;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();

  // Pass 0: parse. Static striding (item i -> worker i % size) makes the
  // file->worker assignment a pure function of the sorted list, and each
  // worker writes only its own slots, so no synchronization is needed.
  std::vector<SourceFile> parsed(n);
  auto parse_stride = [&](size_t w, size_t stride) {
    for (size_t i = w; i < n; i += stride) {
      parsed[i] = SourceFile::Parse(sorted[i].first, sorted[i].second);
    }
  };
  if (jobs > 1) {
    ThreadPool pool(static_cast<size_t>(jobs));
    pool.RunOnAll([&](size_t w) { parse_stride(w, pool.size()); });
  } else {
    parse_stride(0, 1);
  }

  // Pass 1: the cross-file model (serial; cheap token scans).
  const ProjectModel model = ProjectModel::Build(parsed);

  // Pass 2: per-file rules, same deterministic striding.
  std::vector<std::vector<Diagnostic>> per(n);
  auto rules_stride = [&](size_t w, size_t stride) {
    for (size_t i = w; i < n; i += stride) {
      per[i] = RunRules(parsed[i], model);
    }
  };
  if (jobs > 1) {
    ThreadPool pool(static_cast<size_t>(jobs));
    pool.RunOnAll([&](size_t w) { rules_stride(w, pool.size()); });
  } else {
    rules_stride(0, 1);
  }

  std::vector<Diagnostic> out;
  for (size_t i = 0; i < n; ++i) {
    out.insert(out.end(), per[i].begin(), per[i].end());
  }
  CheckIncludeCycles(parsed, model, &out);
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return out;
}

int LintFiles(const std::vector<std::pair<std::string, std::string>>& files,
              std::vector<Diagnostic>* out) {
  std::vector<Diagnostic> diags = LintProject(files, /*jobs=*/1);
  out->insert(out->end(), diags.begin(), diags.end());
  return diags.empty() ? 0 : 1;
}

std::string FormatDiagnostic(const Diagnostic& d) {
  return d.path + ":" + std::to_string(d.line) + ": " + d.rule + ": " +
         d.message;
}

}  // namespace kws::lint
