// Cross-TU call graph + the four interprocedural rules, built on the
// per-file FunctionRecords from symbols.cpp (joined from the summaries
// alone, without re-lexing anything).
//
// Resolution is name-based with a visibility filter: a call site resolves
// to the definitions of that name only when the name is declared somewhere
// in the calling file's transitive include closure (or defined in the
// calling file itself). Qualified calls (`sim::submit`, `Foo::bar`) narrow
// the candidate set to definitions whose qualified name matches. This is
// deliberately an over-approximation — good enough for deadlock/taint
// *reachability* and for liveness, with no C++ name lookup implemented.
//
// Rules (docs/STATIC_ANALYSIS.md has the worked examples):
//   lock-order-cycle          cycle in the lock acquisition graph
//   blocking-under-lock       I/O, CondVar::wait, or ThreadPool::submit
//                             reachable while a core::MutexLock is live
//   transitive-nondeterminism det-layer function whose call chain reaches
//                             a banned nondeterminism source
//   dead-symbol               src/ function reachable from no entry point,
//                             test, bench, or registry factory
#pragma once

#include <string>
#include <vector>

namespace analyze {

struct FileSummary;
struct Finding;

/// Run the interprocedural rules over all summaries (invoked from
/// run_global_rules).
void run_callgraph_rules(const std::vector<FileSummary>& summaries,
                         std::vector<Finding>& out);

/// Deterministic textual dump of the resolved call graph, one definition
/// per line followed by its resolved callees — the `--dump-callgraph`
/// artifact CI uploads, golden-pinned over a fixture tree.
std::string dump_callgraph(const std::vector<FileSummary>& summaries);

}  // namespace analyze
