// Symbol indexer for hcsched_analyze: a declaration/definition recognizer
// over the shared token stream — NOT a C++ parser. It recognizes the
// repo's own idioms (free functions, inline and out-of-line members,
// operator overloads, constructors/destructors, namespaces, template
// heads) and digests each function *definition* into a FunctionRecord of
// interprocedural facts:
//
//   * call sites, each with the set of core::MutexLock locks held there;
//   * lock acquisitions (core::MutexLock / std::lock_guard / unique_lock /
//     scoped_lock) with the locks already held when taken;
//   * blocking-primitive hits (CondVar::wait, ThreadPool::submit /
//     parallel_for_chunks, stream I/O) with the held set;
//   * nondeterminism taint sources (the banned-token list of the
//     no-nondeterminism-in-core rule, detected at token level);
//   * the set of identifiers referenced in the body (liveness edges for
//     the dead-symbol rule: function pointers, factory tables, lambdas).
//
// Records are pure per-file facts — they carry no cross-file resolution —
// so they live in the FileSummary. The cross-TU joins (call graph, lock
// graph, taint/liveness fixpoints) happen in callgraph.cpp over those
// records.
//
// Approximations, by design (see docs/STATIC_ANALYSIS.md):
//   * lambdas are attributed to their enclosing function — a call made
//     inside a lambda passed to parallel_for_chunks is a call made by the
//     function that built the lambda;
//   * tokens on preprocessor-directive lines (macro definitions) never
//     open scopes or functions; their identifiers are attributed to the
//     file-scope record so macro-expanded helpers stay live;
//   * member mutexes spelled as a bare identifier are qualified with the
//     enclosing class ("ThreadPool::queue_mutex_"), keeping same-named
//     mutexes of different classes distinct in the lock graph.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace analyze {

struct FileContext;
struct FileSummary;

/// One call site inside a function body (or at file scope).
struct CallSite {
  std::string name;       // last identifier of the callee expression
  std::string qualifier;  // "::"-joined qualifiers before the name, if any
  std::size_t line = 0;
  bool member = false;  // preceded by '.' or '->'
  std::vector<std::string> held;  // locks held here, outermost first
  bool allow_blocking = false;    // lint:allow(blocking-under-lock)
  bool allow_taint = false;       // lint:allow(taint)
  bool allow_lock = false;        // lint:allow(lock-order)
};

/// One lock acquisition (RAII guard construction).
struct LockSite {
  std::string mutex;  // normalized expression, class-qualified members
  std::size_t line = 0;
  std::vector<std::string> held;  // locks already held when taken
  bool allowed = false;           // lint:allow(lock-order)
};

/// One direct blocking-primitive hit.
struct BlockSite {
  std::string what;  // "CondVar::wait", "ThreadPool::submit", "stream-io"…
  std::size_t line = 0;
  std::vector<std::string> held;
  bool allowed = false;       // lint:allow(blocking-under-lock)
  bool wait_on_held = false;  // cv.wait(m) with m the held lock: the
                              // condition-variable idiom, never flagged
};

/// One nondeterminism source hit (same ban list as the token rule).
struct TaintSite {
  std::string token;  // e.g. "rand(", "std::chrono::system_clock"
  std::size_t line = 0;
};

struct FunctionRecord {
  std::string name;       // unqualified; "operator==", "~Foo", class name
                          // for constructors; "" for the file-scope record
  std::string qualified;  // namespace::Class::name as spelled
  std::size_t line = 0;   // line of the name token (0 for file scope)
  bool is_definition = false;  // has a body (only definitions are stored,
                               // plus the one file-scope record per file)
  bool is_member = false;
  bool is_template = false;
  bool is_operator = false;
  bool is_special = false;    // constructor or destructor
  bool file_scope = false;    // the per-file pseudo-record: file-scope
                              // identifiers, static initializers, macro
                              // bodies — always a liveness root
  bool allow_dead = false;    // lint:allow(dead-symbol) on the definition
  std::vector<std::string> annot_acquires;  // HCSCHED_ACQUIRE(...) args
  std::vector<std::string> annot_requires;  // HCSCHED_REQUIRES(...) args
  std::vector<CallSite> calls;
  std::vector<LockSite> locks;
  std::vector<BlockSite> blocks;
  std::vector<TaintSite> taints;
  std::set<std::string> refs;  // body + signature identifiers (liveness)
};

/// Index every function definition in the file (appends to out.functions,
/// including the trailing file-scope record). Invoked by analyze_file.
void index_symbols(const std::string& relative, const FileContext& ctx,
                   FileSummary& out);

}  // namespace analyze
