// Fixture-driven tests for the kwslint rule engine: each known-bad
// snippet must trip exactly its rule, and the allow()/file-allow()
// suppression comments must silence it again. The binary's exit code
// contract (nonzero on findings) is pinned through LintFiles, which is
// what main() returns.

#include "kwslint/rules.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "kwslint/output.h"
#include "kwslint/source.h"

namespace kws::lint {
namespace {

std::vector<Diagnostic> Lint(const std::string& path,
                             const std::string& content) {
  return RunRules(SourceFile::Parse(path, content));
}

size_t CountRule(const std::vector<Diagnostic>& diags,
                 const std::string& rule) {
  size_t n = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) ++n;
  }
  return n;
}

// --- raw-random -----------------------------------------------------------

TEST(KwslintRawRandom, FlagsEveryBannedSeedSource) {
  const std::string bad =
      "#include <cstdlib>\n"
      "int F() {\n"
      "  srand(42);\n"
      "  std::random_device rd;\n"
      "  auto seed = time(nullptr);\n"
      "  return std::rand();\n"
      "}\n";
  std::vector<Diagnostic> diags = Lint("src/core/foo.cc", bad);
  EXPECT_EQ(CountRule(diags, "raw-random"), 4u);
}

TEST(KwslintRawRandom, RngImplementationIsExempt) {
  EXPECT_EQ(CountRule(Lint("src/common/random.cc", "int x = std::rand();\n"),
                      "raw-random"),
            0u);
}

TEST(KwslintRawRandom, AppliesToTestsAndBenches) {
  EXPECT_EQ(CountRule(Lint("tests/foo_test.cc", "int x = std::rand();\n"),
                      "raw-random"),
            1u);
  EXPECT_EQ(CountRule(Lint("bench/bench_foo.cc", "std::mt19937 gen;\n"),
                      "raw-random"),
            1u);
}

// --- no-throw -------------------------------------------------------------

TEST(KwslintNoThrow, FlagsThrowOnLibraryPathsOnly) {
  const std::string bad = "void F() { throw 42; }\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", bad), "no-throw"), 1u);
  // Tests may throw (gtest itself does).
  EXPECT_EQ(CountRule(Lint("tests/foo_test.cc", bad), "no-throw"), 0u);
}

TEST(KwslintNoThrow, IgnoresCommentsAndStrings) {
  const std::string ok =
      "// may throw in spirit\n"
      "const char* kMsg = \"never throw\";\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", ok), "no-throw"), 0u);
}

// --- raw-thread -----------------------------------------------------------

TEST(KwslintRawThread, FlagsNakedThreadAsyncDetach) {
  const std::string bad =
      "void F() {\n"
      "  std::thread t([] {});\n"
      "  t.detach();\n"
      "  auto fut = std::async(G);\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", bad), "raw-thread"), 3u);
  // The rule holds in tests too: deterministic schedules need the pool.
  EXPECT_EQ(CountRule(Lint("tests/foo_test.cc", bad), "raw-thread"), 3u);
}

TEST(KwslintRawThread, ThreadPoolImplementationIsExempt) {
  EXPECT_EQ(CountRule(Lint("src/common/thread_pool.cc",
                           "std::thread t([] {});\n"),
                      "raw-thread"),
            0u);
}

// --- sleep ----------------------------------------------------------------

TEST(KwslintSleep, FlagsSleepForAndSleepUntil) {
  const std::string bad =
      "void F() {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(60));\n"
      "  std::this_thread::sleep_until(t);\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/serve/foo.cc", bad), "sleep"), 2u);
}

TEST(KwslintSleep, JustifiedAllowSilencesIt) {
  const std::string allowed =
      "  std::this_thread::sleep_for(d);  // models a backend round-trip "
      "-- kwslint: allow(sleep)\n";
  const std::vector<Diagnostic> diags = Lint("src/core/foo.cc", allowed);
  EXPECT_EQ(CountRule(diags, "sleep"), 0u);
  EXPECT_EQ(CountRule(diags, "allow-justification"), 0u);
}

TEST(KwslintSleep, AppliesToSrcTestsAndBenchesOnly) {
  const std::string bad = "void F() { std::this_thread::sleep_for(d); }\n";
  for (const char* path :
       {"src/core/foo.cc", "tests/foo_test.cc", "bench/bench_foo.cc"}) {
    EXPECT_EQ(CountRule(Lint(path, bad), "sleep"), 1u) << path;
  }
  EXPECT_EQ(CountRule(Lint("examples/demo.cc", bad), "sleep"), 0u);
}

// --- no-iostream ----------------------------------------------------------

TEST(KwslintNoIostream, FlagsCoutCerrInSrcOnly) {
  const std::string bad =
      "void F() { std::cout << 1; std::cerr << 2; }\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", bad), "no-iostream"), 2u);
  // Benches and examples print; that is their job.
  EXPECT_EQ(CountRule(Lint("bench/bench_foo.cc", bad), "no-iostream"), 0u);
  EXPECT_EQ(CountRule(Lint("examples/demo.cc", bad), "no-iostream"), 0u);
}

// --- doc-comment ----------------------------------------------------------

std::string Header(const std::string& body) {
  return "#ifndef KWDB_FOO_BAR_H_\n#define KWDB_FOO_BAR_H_\n" + body +
         "#endif  // KWDB_FOO_BAR_H_\n";
}

TEST(KwslintDocComment, FlagsUndocumentedPublicFunction) {
  std::vector<Diagnostic> diags = Lint(
      "src/foo/bar.h", Header("namespace kws::foo {\n"
                              "int Undocumented(int x);\n"
                              "/// Documented.\n"
                              "int Documented(int x);\n"
                              "}  // namespace kws::foo\n"));
  ASSERT_EQ(CountRule(diags, "doc-comment"), 1u);
  EXPECT_EQ(diags[0].line, 4);
}

TEST(KwslintDocComment, PublicClassScopeOnly) {
  std::vector<Diagnostic> diags = Lint(
      "src/foo/bar.h", Header("namespace kws::foo {\n"
                              "/// A widget.\n"
                              "class Widget {\n"
                              " public:\n"
                              "  Widget() = default;\n"     // exempt
                              "  void Hidden();\n"          // fires
                              "  /// Doc'd.\n"
                              "  void Shown();\n"
                              "  int trivial() const { return x_; }\n"
                              " private:\n"
                              "  void Secret();\n"          // private: exempt
                              "  int x_ = 0;\n"
                              "};\n"
                              "}  // namespace kws::foo\n"));
  ASSERT_EQ(CountRule(diags, "doc-comment"), 1u);
  EXPECT_EQ(diags[0].line, 8);
}

TEST(KwslintDocComment, FlagsUndocumentedTypeAndAlias) {
  std::vector<Diagnostic> diags = Lint(
      "src/foo/bar.h", Header("namespace kws::foo {\n"
                              "struct Options {\n"
                              "  int k = 10;\n"
                              "};\n"
                              "using Id = unsigned;\n"
                              "}  // namespace kws::foo\n"));
  EXPECT_EQ(CountRule(diags, "doc-comment"), 2u);
}

TEST(KwslintDocComment, SrcHeadersOnlyAndMembersExempt) {
  // Same undocumented function in a test header: not checked.
  EXPECT_EQ(CountRule(Lint("tests/util.h",
                           "#ifndef KWDB_TESTS_UTIL_H_\n"
                           "#define KWDB_TESTS_UTIL_H_\n"
                           "int Undocumented(int x);\n"
                           "#endif  // KWDB_TESTS_UTIL_H_\n"),
                      "doc-comment"),
            0u);
  // Data members and std::function-typed fields are not declarations the
  // rule covers (the '(' in the template argument must not confuse it).
  EXPECT_EQ(CountRule(Lint("src/foo/bar.h",
                           Header("namespace kws::foo {\n"
                                  "/// S.\n"
                                  "struct S {\n"
                                  "  int count = 0;\n"
                                  "  std::function<void(int)> hook;\n"
                                  "};\n"
                                  "}  // namespace kws::foo\n")),
                      "doc-comment"),
            0u);
}

TEST(KwslintDocComment, FlagsUndocumentedMacro) {
  std::vector<Diagnostic> diags = Lint(
      "src/foo/bar.h",
      Header("#define KWS_FOO(x) ((x) + 1)\n"
             "/// Documented macro.\n"
             "#define KWS_BAR(x) ((x) - 1)\n"));
  ASSERT_EQ(CountRule(diags, "doc-comment"), 1u);
  EXPECT_EQ(diags[0].line, 3);  // KWS_FOO; the guard #define is exempt
}

// --- header-guard ---------------------------------------------------------

TEST(KwslintHeaderGuard, FlagsWrongGuardPragmaOnceAndBadFilename) {
  EXPECT_EQ(CountRule(Lint("src/foo/bar.h",
                           "#ifndef WRONG_GUARD_H_\n"
                           "#define WRONG_GUARD_H_\n"
                           "#endif\n"),
                      "header-guard"),
            1u);
  EXPECT_GE(CountRule(Lint("src/foo/bar.h", "#pragma once\nint x;\n"),
                      "header-guard"),
            1u);
  EXPECT_EQ(CountRule(Lint("src/foo/BadName.cc", "int x;\n"), "header-guard"),
            1u);
  EXPECT_EQ(CountRule(Lint("src/foo/bar.h", Header("")), "header-guard"), 0u);
}

TEST(KwslintHeaderGuard, GuardNameTracksPath) {
  // src/ is stripped; other top dirs are kept (bench_util.h convention).
  EXPECT_EQ(CountRule(Lint("bench/util.h",
                           "#ifndef KWDB_BENCH_UTIL_H_\n"
                           "#define KWDB_BENCH_UTIL_H_\n"
                           "#endif  // KWDB_BENCH_UTIL_H_\n"),
                      "header-guard"),
            0u);
}

// --- mutex-style ----------------------------------------------------------

TEST(KwslintMutexStyle, FlagsBadFieldNameAndManualLock) {
  std::vector<Diagnostic> diags = Lint(
      "src/foo/bar.h", Header("namespace kws::foo {\n"
                              "/// C.\n"
                              "class C {\n"
                              " private:\n"
                              "  std::mutex lock_;\n"       // bad name
                              "  std::mutex mu_;\n"         // fine
                              "  mutable std::mutex big_mu_;\n"  // fine
                              "};\n"
                              "}  // namespace kws::foo\n"));
  EXPECT_EQ(CountRule(diags, "mutex-style"), 1u);

  EXPECT_EQ(CountRule(Lint("src/foo/bar.cc",
                           "void F() {\n"
                           "  mu_.lock();\n"
                           "  mu_.unlock();\n"
                           "}\n"),
                      "mutex-style"),
            2u);
  // RAII guards are the blessed pattern.
  EXPECT_EQ(CountRule(Lint("src/foo/bar.cc",
                           "void F() { std::lock_guard<std::mutex> "
                           "lock(mu_); }\n"),
                      "mutex-style"),
            0u);
}

// --- metric-name ----------------------------------------------------------

TEST(KwslintMetricName, FlagsNonDottedLowercaseNames) {
  const std::string bad =
      "void F(obs::TelemetryRegistry* m, trace::Tracer* t) {\n"
      "  m->GetWindowedCounter(\"Serve.Submitted\");\n"  // uppercase
      "  m->GetWindowedHistogram(\"serve latency\");\n"  // space
      "  t->BeginSpan(\"cn-search\");\n"                 // dash
      "  t->AddCounter(\"results!\", 1);\n"              // punctuation
      "  t->AddEvent(\"\");\n"                           // empty
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/serve/foo.cc", bad), "metric-name"), 5u);
}

TEST(KwslintMetricName, AcceptsDottedLowercaseAndSkipsNonLiterals) {
  const std::string good =
      "void F(obs::TelemetryRegistry* m, trace::Tracer* t,\n"
      "       const char* dyn) {\n"
      "  m->GetWindowedCounter(\"serve.cache.hits\");\n"
      "  m->GetWindowedHistogram(\"serve.latency_micros\");\n"
      "  t->BeginSpan(\"cn.execute.naive\");\n"
      "  t->AddCounter(\"frontier_rows\", 42);\n"
      "  m->GetWindowedCounter(dyn);\n"  // non-literal: not checked
      "  t->BeginSpan(dyn);\n"           // non-literal: not checked
      "  trace::TraceSpan span(t, \"cn.topk\");\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/serve/foo.cc", good), "metric-name"), 0u);
}

TEST(KwslintMetricName, ChecksTraceSpanDeclarations) {
  const std::string bad =
      "void F(trace::Tracer* t) {\n"
      "  trace::TraceSpan span(t, \"CN.TopK\");\n"
      "}\n";
  std::vector<Diagnostic> diags = Lint("src/core/foo.cc", bad);
  ASSERT_EQ(CountRule(diags, "metric-name"), 1u);
  EXPECT_EQ(diags[0].line, 2);
  // Declarations without a literal (headers, pointer params) are silent.
  EXPECT_EQ(CountRule(Lint("src/core/foo.h",
                           Header("namespace kws::core {\n"
                                  "/// S.\n"
                                  "struct S { trace::TraceSpan* span; };\n"
                                  "}\n")),
                      "metric-name"),
            0u);
}

TEST(KwslintMetricName, ChecksLiteralOnTheContinuationLine) {
  // The common clang-format wrap: the literal lands on the line after
  // the open paren and is still checked.
  const std::string bad =
      "void F(trace::Tracer* t) {\n"
      "  trace::TraceSpan span(t,\n"
      "                        \"CN.TopK\");\n"
      "}\n";
  std::vector<Diagnostic> diags = Lint("src/core/foo.cc", bad);
  ASSERT_EQ(CountRule(diags, "metric-name"), 1u);
  EXPECT_EQ(diags[0].line, 3);
  const std::string good =
      "void F(obs::TelemetryRegistry* m) {\n"
      "  m->GetWindowedCounter(\n"
      "      \"serve.tuple_cache.evictions\");\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/serve/foo.cc", good), "metric-name"), 0u);
  // The scan runs to the call's matching close paren, so a literal any
  // number of lines below the open paren is still checked.
  const std::string far =
      "void F(trace::Tracer* t) {\n"
      "  t->AddEvent(\n"
      "      //\n"
      "      \"Bad Name\");\n"
      "}\n";
  std::vector<Diagnostic> far_diags = Lint("src/core/foo.cc", far);
  ASSERT_EQ(CountRule(far_diags, "metric-name"), 1u);
  EXPECT_EQ(far_diags[0].line, 4);
  // ...but a literal in a *different* call on a later line is not blamed
  // on this one: the scan stops at the close paren / statement end.
  const std::string next_call =
      "void F(trace::Tracer* t) {\n"
      "  t->BeginSpan(\n"
      "      \"cn.execute\");\n"
      "  Unrelated(\"Not A Metric\");\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", next_call), "metric-name"), 0u);
}

TEST(KwslintMetricName, AppliesToTestsAndBenches) {
  const std::string bad = "void F(T* t) { t->AddEvent(\"Bad Name\"); }\n";
  EXPECT_EQ(CountRule(Lint("tests/foo_test.cc", bad), "metric-name"), 1u);
  EXPECT_EQ(CountRule(Lint("bench/bench_foo.cc", bad), "metric-name"), 1u);
}

// --- suppression ----------------------------------------------------------

TEST(KwslintSuppression, TrailingAllowSilencesThatLineOnly) {
  const std::string body =
      "void F() {\n"
      "  std::thread a([] {});  // fixture -- kwslint: allow(raw-thread)\n"
      "  std::thread b([] {});\n"
      "}\n";
  std::vector<Diagnostic> diags = Lint("src/core/foo.cc", body);
  ASSERT_EQ(CountRule(diags, "raw-thread"), 1u);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(KwslintSuppression, AllowListTakesMultipleRules) {
  const std::string body =
      "void F() { std::thread t([] { throw 1; }); }"
      "  // fixture -- kwslint: allow(raw-thread, no-throw)\n";
  EXPECT_TRUE(Lint("src/core/foo.cc", body).empty());
}

TEST(KwslintSuppression, FileAllowSilencesWholeFile) {
  const std::string body =
      "// kwslint: file-allow(raw-thread)\n"
      "void F() {\n"
      "  std::thread a([] {});\n"
      "  std::thread b([] {});\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", body), "raw-thread"), 0u);
}

TEST(KwslintSuppression, AllowDoesNotSilenceOtherRules) {
  const std::string body =
      "void F() { throw 1; }  // kwslint: allow(raw-thread)\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", body), "no-throw"), 1u);
}

// --- status-discard -------------------------------------------------------

TEST(KwslintStatusDiscard, FlagsBareCallToIndexedFunction) {
  // The model is cross-file: the header declares, the .cc discards.
  std::vector<Diagnostic> diags = LintProject(
      {{"src/foo/api.h", Header("namespace kws::foo {\n"
                                "/// Applies a batch.\n"
                                "Status ApplyBatch(int n);\n"
                                "/// Finds a row.\n"
                                "Result<int> FindRow(int id);\n"
                                "}  // namespace kws::foo\n")},
       {"src/foo/use.cc",
        "void F() {\n"
        "  ApplyBatch(3);\n"                      // fires
        "  FindRow(7);\n"                         // fires
        "  Status s = ApplyBatch(4);\n"           // checked: fine
        "  (void)ApplyBatch(5);\n"                // explicit discard: fine
        "  if (!ApplyBatch(6).ok()) return;\n"    // consumed: fine
        "}\n"}},
      1);
  EXPECT_EQ(CountRule(diags, "status-discard"), 2u);
}

TEST(KwslintStatusDiscard, AllowSuppressesIt) {
  std::vector<Diagnostic> diags = LintProject(
      {{"src/foo/api.h", Header("namespace kws::foo {\n"
                                "/// Applies a batch.\n"
                                "Status ApplyBatch(int n);\n"
                                "}  // namespace kws::foo\n")},
       {"src/foo/use.cc",
        "void F() {\n"
        "  ApplyBatch(3);  // best-effort warmup -- kwslint: "
        "allow(status-discard)\n"
        "}\n"}},
      1);
  EXPECT_EQ(CountRule(diags, "status-discard"), 0u);
}

// --- unordered-iteration --------------------------------------------------

TEST(KwslintUnorderedIteration, FlagsRangeForOverDeclaredContainer) {
  const std::string body =
      "void F() {\n"
      "  std::unordered_map<int, int> acc;\n"
      "  for (const auto& [k, v] : acc) { Use(k, v); }\n"   // fires
      "  std::vector<int> sorted;\n"
      "  for (int x : sorted) { Use(x, x); }\n"             // fine
      "}\n";
  std::vector<Diagnostic> diags = Lint("src/core/foo.cc", body);
  ASSERT_EQ(CountRule(diags, "unordered-iteration"), 1u);
  EXPECT_EQ(diags[0].line, 3);
  // The rule guards library determinism only: tests/benches may iterate.
  EXPECT_EQ(CountRule(Lint("tests/foo_test.cc", body),
                      "unordered-iteration"),
            0u);
}

TEST(KwslintUnorderedIteration, SeesMembersDeclaredInIncludedHeader) {
  std::vector<Diagnostic> diags = LintProject(
      {{"src/foo/holder.h", Header("namespace kws::foo {\n"
                                   "/// Holds postings.\n"
                                   "struct Holder {\n"
                                   "  std::unordered_map<int, int> acc_;\n"
                                   "};\n"
                                   "}  // namespace kws::foo\n")},
       {"src/foo/holder.cc",
        "#include \"foo/holder.h\"\n"
        "void G(Holder& h) {\n"
        "  for (const auto& [k, v] : h.acc_) { Use(k, v); }\n"
        "}\n"}},
      1);
  // Note: the range expression's last token is `acc_`, declared in the
  // included header and therefore visible through the include graph.
  EXPECT_EQ(CountRule(diags, "unordered-iteration"), 1u);
}

TEST(KwslintUnorderedIteration, AllowSuppressesIt) {
  const std::string body =
      "void F() {\n"
      "  std::unordered_set<int> seen;\n"
      "  for (int x : seen) { Use(x, x); }  // order-independent sum -- "
      "kwslint: allow(unordered-iteration)\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", body), "unordered-iteration"),
            0u);
}

// --- deadline-loop --------------------------------------------------------

TEST(KwslintDeadlineLoop, FlagsLoopThatNeverPollsTheDeadline) {
  const std::string bad =
      "void Scan(const Deadline& deadline, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"   // fires: deadline unused
      "    Work(i);\n"
      "  }\n"
      "}\n";
  std::vector<Diagnostic> diags = Lint("src/core/foo.cc", bad);
  ASSERT_EQ(CountRule(diags, "deadline-loop"), 1u);
  EXPECT_EQ(diags[0].line, 2);
}

TEST(KwslintDeadlineLoop, PollingOrForwardingSilencesIt) {
  const std::string polls =
      "void Scan(const Deadline& deadline, int n) {\n"
      "  DeadlineChecker checker(deadline);\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (checker.Expired()) break;\n"
      "    Work(i);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", polls), "deadline-loop"), 0u);
  const std::string forwards =
      "void Scan(const Deadline& deadline, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    Work(i, deadline);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", forwards), "deadline-loop"),
            0u);
  // Functions that never take a deadline are out of scope.
  const std::string no_deadline =
      "void Scan(int n) {\n"
      "  for (int i = 0; i < n; ++i) { Work(i); }\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", no_deadline), "deadline-loop"),
            0u);
}

TEST(KwslintDeadlineLoop, AllowSuppressesIt) {
  const std::string body =
      "void Scan(const Deadline& deadline, int n) {\n"
      "  for (int i = 0; i < 4; ++i) {  // bounded by fanout -- kwslint: "
      "allow(deadline-loop)\n"
      "    Work(i);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/foo.cc", body), "deadline-loop"), 0u);
}

// --- allow-justification --------------------------------------------------

TEST(KwslintAllowJustification, FlagsBareAllow) {
  const std::string bare =
      "void F() {\n"
      "  std::thread t([] {});  // kwslint: allow(raw-thread)\n"
      "}\n";
  std::vector<Diagnostic> diags = Lint("src/core/foo.cc", bare);
  ASSERT_EQ(CountRule(diags, "allow-justification"), 1u);
  EXPECT_EQ(diags[0].line, 2);
  // The allow itself still works; only the missing reason is flagged.
  EXPECT_EQ(CountRule(diags, "raw-thread"), 0u);
}

TEST(KwslintAllowJustification, JustifiedAllowIsClean) {
  const std::string justified =
      "void F() {\n"
      "  std::thread t([] {});  // outside-caller model -- kwslint: "
      "allow(raw-thread)\n"
      "}\n";
  EXPECT_TRUE(Lint("src/core/foo.cc", justified).empty());
  // A self-allow is legal but must still carry a reason. (Justified here
  // so the fixture itself is clean.)
  const std::string self_allowed =
      "void F() {\n"
      "  std::thread t([] {});  // fixture -- kwslint: allow(raw-thread, "
      "allow-justification)\n"
      "}\n";
  EXPECT_TRUE(Lint("src/core/foo.cc", self_allowed).empty());
}

// --- include-cycle --------------------------------------------------------

TEST(KwslintIncludeCycle, FlagsMutualIncludes) {
  std::vector<Diagnostic> diags = LintProject(
      {{"src/a/x.h", "#ifndef KWDB_A_X_H_\n#define KWDB_A_X_H_\n"
                     "#include \"a/y.h\"\n"
                     "#endif  // KWDB_A_X_H_\n"},
       {"src/a/y.h", "#ifndef KWDB_A_Y_H_\n#define KWDB_A_Y_H_\n"
                     "#include \"a/x.h\"\n"
                     "#endif  // KWDB_A_Y_H_\n"}},
      1);
  ASSERT_EQ(CountRule(diags, "include-cycle"), 1u);
  // Reported once, on the lexicographically smallest member.
  EXPECT_EQ(diags[0].path, "src/a/x.h");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(KwslintIncludeCycle, AcyclicGraphAndFileAllowAreClean) {
  EXPECT_EQ(CountRule(LintProject({{"src/a/x.h",
                                    "#ifndef KWDB_A_X_H_\n"
                                    "#define KWDB_A_X_H_\n"
                                    "#include \"a/y.h\"\n"
                                    "#endif  // KWDB_A_X_H_\n"},
                                   {"src/a/y.h", "#ifndef KWDB_A_Y_H_\n"
                                                 "#define KWDB_A_Y_H_\n"
                                                 "#endif  // KWDB_A_Y_H_\n"}},
                                  1),
                      "include-cycle"),
            0u);
  // file-allow silences the report (placed in the reported file).
  std::vector<Diagnostic> allowed = LintProject(
      {{"src/a/x.h",
        "// interface split pending -- kwslint: file-allow(include-cycle)\n"
        "#ifndef KWDB_A_X_H_\n#define KWDB_A_X_H_\n"
        "#include \"a/y.h\"\n"
        "#endif  // KWDB_A_X_H_\n"},
       {"src/a/y.h", "#ifndef KWDB_A_Y_H_\n#define KWDB_A_Y_H_\n"
                     "#include \"a/x.h\"\n"
                     "#endif  // KWDB_A_Y_H_\n"}},
      1);
  EXPECT_EQ(CountRule(allowed, "include-cycle"), 0u);
}

// --- engine contract ------------------------------------------------------

TEST(KwslintEngine, ExitCodeIsNonzeroIffFindings) {
  std::vector<Diagnostic> diags;
  EXPECT_EQ(LintFiles({{"src/core/ok.cc", "int x = 0;\n"}}, &diags), 0);
  EXPECT_TRUE(diags.empty());
  // One seeded violation per rule family; every fixture must fail.
  const std::vector<std::pair<std::string, std::string>> seeded = {
      {"src/core/a.cc", "void F() { srand(1); }\n"},
      {"src/core/b.cc", "void F() { throw 1; }\n"},
      {"src/core/c.cc", "void F() { std::thread t([] {}); }\n"},
      {"src/core/d.cc", "void F() { std::cout << 1; }\n"},
      {"src/foo/e.h", Header("namespace kws::foo {\nint G(int);\n}\n")},
      {"src/foo/f.h", "#pragma once\n"},
      {"src/core/g.cc", "void F() { mu_.lock(); }\n"},
      {"src/core/h.cc", "void F(T* t) { t->AddEvent(\"Bad Name\"); }\n"},
  };
  for (const auto& fixture : seeded) {
    std::vector<Diagnostic> d;
    EXPECT_EQ(LintFiles({fixture}, &d), 1) << fixture.first;
    EXPECT_FALSE(d.empty()) << fixture.first;
  }
}

TEST(KwslintEngine, FormatIsFileLineRuleMessage) {
  Diagnostic d{"src/foo.cc", 12, "no-throw", "boom"};
  EXPECT_EQ(FormatDiagnostic(d), "src/foo.cc:12: no-throw: boom");
}

TEST(KwslintEngine, RuleIdsAreStable) {
  const std::vector<std::string> ids = RuleIds();
  EXPECT_EQ(ids.size(), 14u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "doc-comment"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "sleep"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "metric-name"), ids.end());
  for (const char* id : {"status-discard", "unordered-iteration",
                         "deadline-loop", "allow-justification",
                         "include-cycle"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

// --- output formats & parallel determinism --------------------------------

/// A fixture set with findings across several rules and files, plus clean
/// files, to exercise the full two-pass engine.
std::vector<std::pair<std::string, std::string>> MixedFixtures() {
  return {
      {"src/a/x.h", "#ifndef KWDB_A_X_H_\n#define KWDB_A_X_H_\n"
                    "#include \"a/y.h\"\n"
                    "#endif  // KWDB_A_X_H_\n"},
      {"src/a/y.h", "#ifndef KWDB_A_Y_H_\n#define KWDB_A_Y_H_\n"
                    "#include \"a/x.h\"\n"
                    "#endif  // KWDB_A_Y_H_\n"},
      {"src/foo/api.h", Header("namespace kws::foo {\n"
                               "/// Applies a batch.\n"
                               "Status ApplyBatch(int n);\n"
                               "}  // namespace kws::foo\n")},
      {"src/foo/use.cc", "void F() { ApplyBatch(3); }\n"},
      {"src/core/a.cc", "void F() { srand(1); }\n"},
      {"src/core/b.cc", "void F() { throw 1; }\n"},
      {"src/core/clean1.cc", "int x = 0;\n"},
      {"src/core/clean2.cc", "int y = 1;\n"},
      {"tests/t_test.cc", "void F() { std::thread t([] {}); }\n"},
  };
}

TEST(KwslintEngine, DiagnosticsAreByteIdenticalAcrossJobCounts) {
  const auto files = MixedFixtures();
  const std::vector<Diagnostic> serial = LintProject(files, 1);
  ASSERT_FALSE(serial.empty());
  for (int jobs : {2, 4, 8}) {
    const std::vector<Diagnostic> parallel = LintProject(files, jobs);
    // Byte-level comparison through both renderers: any drift in order,
    // content or count shows up as a string mismatch.
    EXPECT_EQ(RenderJson(serial, files.size(), 0),
              RenderJson(parallel, files.size(), 0))
        << "jobs=" << jobs;
    EXPECT_EQ(RenderSarif(serial), RenderSarif(parallel)) << "jobs=" << jobs;
  }
}

TEST(KwslintEngine, DiagnosticsAreOrderedByPathLineRule) {
  const std::vector<Diagnostic> diags = LintProject(MixedFixtures(), 1);
  for (size_t i = 1; i < diags.size(); ++i) {
    const auto key = [](const Diagnostic& d) {
      return std::make_tuple(d.path, d.line, d.rule, d.message);
    };
    EXPECT_LE(key(diags[i - 1]), key(diags[i]));
  }
}

TEST(KwslintOutput, JsonAndSarifAgreeOnFindings) {
  const std::vector<Diagnostic> diags = LintProject(MixedFixtures(), 1);
  const std::string json = RenderJson(diags, 9, 0);
  const std::string sarif = RenderSarif(diags);
  for (const Diagnostic& d : diags) {
    EXPECT_NE(json.find("\"" + JsonEscape(d.rule) + "\""), std::string::npos)
        << d.rule;
    EXPECT_NE(sarif.find("\"" + JsonEscape(d.rule) + "\""), std::string::npos)
        << d.rule;
    EXPECT_NE(json.find(JsonEscape(d.path)), std::string::npos) << d.path;
    EXPECT_NE(sarif.find(JsonEscape(d.path)), std::string::npos) << d.path;
  }
  // Result counts agree between the two renders.
  size_t json_results = 0, sarif_results = 0;
  for (size_t p = json.find("\"rule\":"); p != std::string::npos;
       p = json.find("\"rule\":", p + 1)) {
    ++json_results;
  }
  for (size_t p = sarif.find("\"ruleId\":"); p != std::string::npos;
       p = sarif.find("\"ruleId\":", p + 1)) {
    ++sarif_results;
  }
  EXPECT_EQ(json_results, diags.size());
  EXPECT_EQ(sarif_results, diags.size());
}

TEST(KwslintOutput, JsonEscapesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(KwslintOutput, BaselineParsesAndSuppresses) {
  Baseline b;
  std::string err;
  ASSERT_TRUE(Baseline::Parse("# comment\n"
                              "\n"
                              "src/core/a.cc: raw-random\n",
                              &b, &err))
      << err;
  EXPECT_EQ(b.size(), 1u);
  const std::vector<Diagnostic> diags = LintProject(MixedFixtures(), 1);
  size_t suppressed = 0;
  const std::vector<Diagnostic> kept = ApplyBaseline(diags, b, &suppressed);
  EXPECT_EQ(suppressed, 1u);
  EXPECT_EQ(kept.size(), diags.size() - 1);
  for (const Diagnostic& d : kept) {
    EXPECT_FALSE(d.path == "src/core/a.cc" && d.rule == "raw-random");
  }
  // Malformed lines are a hard error, not silently ignored.
  Baseline bad;
  EXPECT_FALSE(Baseline::Parse("no separator here\n", &bad, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace kws::lint
