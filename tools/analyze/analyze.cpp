// hcsched_analyze — token-aware static analysis for the hcsched repo
// (dependency-free, ctest-registered). Supersedes the regex linter
// hcsched_lint: same conventions, real lexing.
//
// Rules (docs/STATIC_ANALYSIS.md has the full catalog and the layering
// component table):
//
//   ported from hcsched_lint, now string/comment-aware:
//     heuristic-registry, fastpath-differential, trace-guard,
//     test-registration, include-hygiene, explicit-memory-order,
//     no-nondeterminism-in-core, lock-annotation-coverage, metric-docs
//   include graph:
//     layering, include-cycle, unused-include
//   token-level:
//     range-for-temporary
//   (implicit narrowing and by-value catches are compiler warnings:
//   -Wconversion, -Wcatch-value=3)
//   interprocedural (symbol index + cross-TU call graph):
//     lock-order-cycle, blocking-under-lock, transitive-nondeterminism,
//     dead-symbol
//
// Escapes (comments only — an allow marker inside a string literal never
// suppresses anything):
//     // hcsched-lint: allow(<rule-id>)          whole file, one rule
//     // lint:allow(<token>)                     flagged line or line above
//
// Usage:
//   hcsched_analyze --root <dir> [--sarif-out FILE] [--dump-callgraph FILE]
//                   [--verbose]
//
// Findings are printed to stdout; --sarif-out also writes them as SARIF.
// Exit code: 0 clean, 1 findings, 2 usage/IO/config errors.
#include <iostream>
#include <string_view>

#include "analyze/engine.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: hcsched_analyze --root <dir> [--sarif-out FILE]\n"
         "                       [--dump-callgraph FILE] [--verbose]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  analyze::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opts.root = argv[++i];
    } else if (arg == "--sarif-out" && i + 1 < argc) {
      opts.sarif_out = argv[++i];
    } else if (arg == "--dump-callgraph" && i + 1 < argc) {
      opts.callgraph_out = argv[++i];
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else {
      return usage();
    }
  }
  if (opts.root.empty()) {
    std::cerr << "hcsched_analyze: --root is required\n";
    return 2;
  }
  return analyze::run(opts);
}
