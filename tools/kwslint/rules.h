#ifndef KWDB_TOOLS_KWSLINT_RULES_H_
#define KWDB_TOOLS_KWSLINT_RULES_H_

#include <string>
#include <utility>
#include <vector>

#include "kwslint/model.h"
#include "kwslint/source.h"

namespace kws::lint {

/// One lint finding, printed as "<path>:<line>: <rule>: <message>".
struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

/// The rule ids, in reporting order.
///
/// Token rules (pass 2, per file):
///   raw-random   — nondeterministic seed/generator outside kws::Rng
///   no-throw     — `throw` on a src/ library path (use kws::Status)
///   raw-thread   — std::thread/std::async/detach outside ThreadPool
///   sleep        — std::this_thread::sleep_for/sleep_until in src/,
///                  tests/ or bench/ (a fixed wait on real time)
///   no-iostream  — std::cout/std::cerr in src/ (return Status instead)
///   doc-comment  — undocumented public declaration in a src/ header
///   header-guard — wrong include-guard name, #pragma once, bad filename
///   mutex-style  — mutex field not named *_mu_/mu_, or manual lock()
///   metric-name  — metric/span name literal not dotted lowercase
///                  ([a-z0-9_.]+) in GetWindowedCounter/
///                  GetWindowedHistogram/TraceSpan/BeginSpan/AddCounter/
///                  AddEvent calls, scanned to the call's matching close
///                  paren
///
/// Semantic rules (pass 2, over the pass-1 ProjectModel):
///   status-discard      — call to a kws::Status/Result-returning function
///                         used as a bare expression statement
///   unordered-iteration — range-for over a declared unordered_map/set in
///                         src/ (nondeterministic order; iterate a sorted
///                         snapshot on result paths)
///   deadline-loop       — outermost while/for in a src/ .cc function that
///                         takes a Deadline/DeadlineChecker but whose loop
///                         never polls or forwards it
///   allow-justification — `kwslint: allow(...)` without a justification
///   include-cycle       — cycle in the src/ include graph
std::vector<std::string> RuleIds();

/// Runs every per-file rule over `file` against the cross-file `model`,
/// honoring `// kwslint: allow(rule)` and `// kwslint: file-allow(rule)`
/// suppressions. Diagnostics come back in line order. include-cycle is a
/// project-level rule and reported by LintProject/CheckIncludeCycles, not
/// here.
std::vector<Diagnostic> RunRules(const SourceFile& file,
                                 const ProjectModel& model);

/// Single-file convenience overload: builds a model from `file` alone.
std::vector<Diagnostic> RunRules(const SourceFile& file);

/// Reports one include-cycle diagnostic per strongly connected component
/// of the src/ include graph (on the lexicographically smallest member's
/// offending #include line).
void CheckIncludeCycles(const std::vector<SourceFile>& files,
                        const ProjectModel& model,
                        std::vector<Diagnostic>* out);

/// Two-pass engine entry point: parses `files` (repo-relative path,
/// content), builds the ProjectModel, runs all rules and returns every
/// finding ordered by (path, line, rule, message). With `jobs > 1` the
/// parse and rule passes fan out over a kws::ThreadPool with static
/// striding, so the result is byte-identical for every jobs value.
std::vector<Diagnostic> LintProject(
    const std::vector<std::pair<std::string, std::string>>& files,
    int jobs);

/// Lints a batch serially. Appends findings to `out` and returns the
/// process exit code: 0 when clean, 1 otherwise.
int LintFiles(const std::vector<std::pair<std::string, std::string>>& files,
              std::vector<Diagnostic>* out);

/// Renders `d` in the canonical "file:line: rule-id: message" form.
std::string FormatDiagnostic(const Diagnostic& d);

}  // namespace kws::lint

#endif  // KWDB_TOOLS_KWSLINT_RULES_H_
