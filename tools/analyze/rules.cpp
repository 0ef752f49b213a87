// Analysis rules for hcsched_analyze.
//
// run_local_rules: everything decidable from one file. The five ported
// line-oriented rules (trace-guard, include-hygiene, explicit-memory-order,
// no-nondeterminism-in-core, lock-annotation-coverage) scan the scrubbed
// code lines — comments blanked, string contents blanked — which is what
// makes them string/comment-aware while keeping the exact line pinning the
// fixtures rely on. Implicit narrowing and by-value catches are the
// compiler's to flag (-Wconversion, -Wcatch-value=3 in hcsched_warnings).
//
// run_global_rules: rules needing more than one file — registry coverage,
// fastpath differential coverage, test registration, metric docs (reads
// docs/OBSERVABILITY.md), range-for-temporary (consults the repo-wide
// return-kind map), and the include-graph rules from graph.cpp.
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "analyze/callgraph.hpp"
#include "analyze/model.hpp"

namespace analyze {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string_view trim_left(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  return s;
}

bool is_identifier_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

std::string stem_of(std::string_view relative) {
  const std::size_t slash = relative.rfind('/');
  std::string_view name =
      slash == std::string_view::npos ? relative : relative.substr(slash + 1);
  const std::size_t dot = name.rfind('.');
  return std::string(dot == std::string_view::npos ? name
                                                   : name.substr(0, dot));
}

std::string filename_of(std::string_view relative) {
  const std::size_t slash = relative.rfind('/');
  return std::string(slash == std::string_view::npos
                         ? relative
                         : relative.substr(slash + 1));
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// ------------------------------------------------------ ported local rules

void check_trace_guard(const std::string& relative, const FileContext& ctx,
                       FileSummary& out) {
  // Raw observability entry points that -DHCSCHED_TRACE=0 must compile out.
  constexpr std::string_view kRawCalls[] = {
      "obs::counters::add(",      "counters::add(",
      "obs::Tracer::emit(",       "Tracer::emit(",
      "pool_wait_histogram(",     "pool_run_histogram(",
      "obs::ScopedSpan",          "metrics::gauge(",
      "metrics::histogram(",
  };
  if (!starts_with(relative, "src/")) return;
  if (starts_with(relative, "src/obs/")) return;  // the implementation
  if (out.file_allows.count("trace-guard")) return;
  // Track preprocessor conditional nesting; a line is guarded when any
  // enclosing conditional mentions HCSCHED_TRACE.
  std::vector<bool> guard_stack;
  std::size_t guarded_depth = 0;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = trim_left(ctx.code_lines[i]);
    if (starts_with(line, "#if")) {  // #if / #ifdef / #ifndef
      const bool guards = line.find("HCSCHED_TRACE") != std::string::npos;
      guard_stack.push_back(guards);
      if (guards) ++guarded_depth;
      continue;
    }
    if (starts_with(line, "#endif")) {
      if (!guard_stack.empty()) {
        if (guard_stack.back()) --guarded_depth;
        guard_stack.pop_back();
      }
      continue;
    }
    if (guarded_depth > 0) continue;
    for (const std::string_view call : kRawCalls) {
      if (ctx.code_lines[i].find(call) != std::string::npos) {
        out.findings.push_back(Finding{
            relative, i + 1, "trace-guard",
            "raw call '" + std::string(call) +
                "...' outside an #if HCSCHED_TRACE region; use "
                "HCSCHED_COUNT/HCSCHED_TRACE_EVENT or guard the block"});
        break;
      }
    }
  }
}

void check_include_hygiene(const std::string& relative,
                           const FileContext& ctx, FileSummary& out) {
  // Applies at EVERY nesting depth (src/sim/fault/, fastpath/, ...), and —
  // unlike the regex linter — only to real #include directives: the same
  // text inside a string literal or comment is scrubbed away.
  if (out.file_allows.count("include-hygiene")) return;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = trim_left(ctx.code_lines[i]);
    if (!starts_with(line, "#include")) continue;
    if (line.find("#include \"src/") != std::string_view::npos) {
      out.findings.push_back(Finding{
          relative, i + 1, "include-hygiene",
          "include paths are relative to src/ — drop the 'src/' prefix"});
    } else if (line.find("#include \"../") != std::string_view::npos) {
      out.findings.push_back(Finding{
          relative, i + 1, "include-hygiene",
          "parent-relative include; use a src/-relative path instead"});
    }
  }
}

void check_explicit_memory_order(const std::string& relative,
                                 const FileContext& ctx, FileSummary& out) {
  // Atomic member operations that accept a std::memory_order argument.
  // Matched only when preceded by '.' or '>' (i.e. `x.load(`, `p->store(`)
  // so free functions like `load_etc(` never trip the rule. `exchange(`
  // cannot match inside `compare_exchange_*(` — the longer names continue
  // with `_weak`/`_strong`, not `(`.
  constexpr std::string_view kAtomicOps[] = {
      "load(",
      "store(",
      "exchange(",
      "fetch_add(",
      "fetch_sub(",
      "fetch_and(",
      "fetch_or(",
      "fetch_xor(",
      "compare_exchange_weak(",
      "compare_exchange_strong(",
  };
  // An atomic call may wrap; gather up to this many continuation lines when
  // balancing the parentheses of the call.
  constexpr std::size_t kMaxContinuationLines = 10;
  if (!starts_with(relative, "src/")) return;
  if (out.file_allows.count("explicit-memory-order")) return;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    bool flagged = false;  // at most one finding per line
    for (const std::string_view op : kAtomicOps) {
      for (std::size_t pos = line.find(op); pos != std::string::npos;
           pos = line.find(op, pos + 1)) {
        if (pos == 0) continue;
        const char before = line[pos - 1];
        if (before != '.' && before != '>') continue;
        // Collect the call text from the opening '(' to its matching ')',
        // spilling across continuation lines for wrapped calls.
        std::string call_text;
        int depth = 0;
        bool closed = false;
        std::size_t row = i;
        std::size_t col = pos + op.size() - 1;  // the '(' in the token
        while (row < ctx.code_lines.size() &&
               row < i + 1 + kMaxContinuationLines && !closed) {
          const std::string& scan = ctx.code_lines[row];
          for (; col < scan.size(); ++col) {
            const char c = scan[col];
            call_text += c;
            if (c == '(') ++depth;
            if (c == ')' && --depth == 0) {
              closed = true;
              break;
            }
          }
          ++row;
          col = 0;
        }
        if (call_text.find("memory_order") != std::string::npos) continue;
        if (ctx.line_allowed(i + 1, "memory-order")) continue;
        out.findings.push_back(Finding{
            relative, i + 1, "explicit-memory-order",
            "atomic '" + std::string(op) +
                "...)' without an explicit std::memory_order — name the "
                "ordering (and justify it in a comment), or audit the "
                "site and mark it '// lint:allow(memory-order)'"});
        flagged = true;
        break;
      }
      if (flagged) break;
    }
  }
}

void check_no_nondeterminism_in_core(const std::string& relative,
                                     const FileContext& ctx,
                                     FileSummary& out) {
  // Layers whose outputs must be a pure function of (problem, seed). The
  // sim layer may use wall clocks and ambient entropy; these may not.
  constexpr std::string_view kDeterministicDirs[] = {
      "src/core/",
      "src/heuristics/",
      "src/etc/",
      "src/ga/",
  };
  struct Banned {
    std::string_view token;
    bool word_boundary;  // previous char must not be an identifier char
    std::string_view why;
  };
  constexpr Banned kBanned[] = {
      {"std::random_device", false,
       "ambient entropy; thread seeded randomness through core/rng.hpp"},
      {"std::chrono::system_clock", false,
       "wall-clock time; use steady_clock in sim/ or pass timestamps in"},
      {"std::unordered_map", false,
       "iteration order is implementation-defined; use std::map (or sort)"},
      {"std::unordered_set", false,
       "iteration order is implementation-defined; use std::set (or sort)"},
      {"srand(", true, "global RNG reseed; use core/rng.hpp streams"},
      {"rand(", true, "C global RNG; use core/rng.hpp streams"},
      {"time(", true, "wall-clock time; pass timestamps in from the caller"},
  };
  bool in_scope = false;
  for (const std::string_view dir : kDeterministicDirs) {
    if (starts_with(relative, dir)) in_scope = true;
  }
  if (!in_scope) return;
  if (out.file_allows.count("no-nondeterminism-in-core")) return;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    for (const Banned& ban : kBanned) {
      const std::size_t pos = line.find(ban.token);
      if (pos == std::string::npos) continue;
      // `rand(` must not fire inside `srand(`; `time(` must not fire
      // inside `completion_time(` — the boundary check rejects a preceding
      // identifier character. (A preceding ':' stays in scope so
      // `std::rand(`/`std::time(` are still caught.)
      if (ban.word_boundary && pos > 0 &&
          is_identifier_char(line[pos - 1])) {
        continue;
      }
      if (ctx.line_allowed(i + 1, "nondeterminism")) continue;
      std::string message = "'";
      message += ban.token;
      message += "' in a deterministic layer: ";
      message += ban.why;
      message += " (or mark the audited line '// lint:allow("
                 "nondeterminism)')";
      out.findings.push_back(Finding{relative, i + 1,
                                     "no-nondeterminism-in-core",
                                     std::move(message)});
      break;  // one finding per line
    }
  }
}

void check_lock_annotation_coverage(const std::string& relative,
                                    const FileContext& ctx,
                                    FileSummary& out) {
  // Type tokens that declare a mutex member/variable when they open a
  // declaration line. References/pointers (`Mutex&`, `std::mutex*`) are
  // aliases to a capability owned elsewhere and are not declarations.
  constexpr std::string_view kMutexTypes[] = {
      "std::mutex ",
      "core::Mutex ",
      "Mutex ",
  };
  if (!starts_with(relative, "src/")) return;
  if (out.file_allows.count("lock-annotation-coverage")) return;
  std::string file_text;
  for (const std::string& line : ctx.code_lines) {
    file_text += line;
    file_text += '\n';
  }
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    std::string_view line = trim_left(ctx.code_lines[i]);
    if (starts_with(line, "mutable ")) {
      line.remove_prefix(sizeof("mutable ") - 1);
    }
    for (const std::string_view type : kMutexTypes) {
      if (!starts_with(line, type)) continue;
      std::string_view rest = trim_left(line.substr(type.size()));
      std::size_t len = 0;
      while (len < rest.size() && is_identifier_char(rest[len])) ++len;
      if (len == 0) continue;  // not a named declaration
      const std::string name(rest.substr(0, len));
      // GUARDED_BY(name) with a closing paren pins the exact mutex name;
      // the bare substring also matches HCSCHED_PT_GUARDED_BY. Scanning
      // scrubbed lines means an annotation mentioned only in a comment no
      // longer satisfies the rule.
      const std::string needle = "GUARDED_BY(" + name + ")";
      if (file_text.find(needle) != std::string::npos) break;
      if (ctx.line_allowed(i + 1, "lock-annotation")) break;
      out.findings.push_back(Finding{
          relative, i + 1, "lock-annotation-coverage",
          "mutex '" + name +
              "' has no GUARDED_BY/PT_GUARDED_BY field naming it — "
              "annotate what it protects (core/thread_annotations.hpp), "
              "or mark the audited line '// lint:allow("
              "lock-annotation)'"});
      break;
    }
  }
}

// ------------------------------------------------------------ global rules

void check_heuristic_registry(const std::vector<FileSummary>& files,
                              std::vector<Finding>& out) {
  const FileSummary* registry = nullptr;
  for (const FileSummary& f : files) {
    if (f.relative == "src/heuristics/registry.cpp") registry = &f;
  }
  if (registry == nullptr) return;  // tree has no registry to check against
  std::set<std::string> registered;
  for (const IncludeInfo& inc : registry->includes) {
    if (!inc.angle) registered.insert(inc.path);
  }
  for (const FileSummary& f : files) {
    if (!starts_with(f.relative, "src/heuristics/")) continue;
    if (!ends_with(f.relative, ".hpp")) continue;
    // Only headers directly in src/heuristics/ declare registrable
    // heuristics; nested subdirectories (e.g. fastpath/) are support code
    // covered by the fastpath-differential rule.
    const std::string_view below =
        std::string_view(f.relative).substr(sizeof("src/heuristics/") - 1);
    if (below.find('/') != std::string_view::npos) continue;
    const std::string stem = stem_of(f.relative);
    if (stem == "heuristic" || stem == "registry") continue;  // framework
    if (f.file_allows.count("heuristic-registry")) continue;
    if (!registered.count("heuristics/" + stem + ".hpp")) {
      out.push_back(Finding{
          f.relative, 0, "heuristic-registry",
          "header is not included by src/heuristics/registry.cpp; register "
          "the heuristic (or mark the file '// hcsched-lint: "
          "allow(heuristic-registry)' if it is a wrapper)"});
    }
  }
}

void check_fastpath_differential(const std::vector<FileSummary>& files,
                                 std::vector<Finding>& out) {
  // A kernel file counts as covered when any tests/test_fastpath*.cpp
  // names its stem (idiomatically in a leading "// covers: ..." comment,
  // but any mention — code, comment, or string — qualifies; the summaries
  // carry the full word set for exactly these files).
  std::set<std::string> mentioned;
  for (const FileSummary& f : files) {
    mentioned.insert(f.mentions.begin(), f.mentions.end());
  }
  for (const FileSummary& f : files) {
    if (!starts_with(f.relative, "src/heuristics/fastpath/")) continue;
    if (f.file_allows.count("fastpath-differential")) continue;
    if (!mentioned.count(stem_of(f.relative))) {
      out.push_back(Finding{
          f.relative, 0, "fastpath-differential",
          "kernel file is not named by any tests/test_fastpath*.cpp "
          "differential suite; add coverage (or mark the file "
          "'// hcsched-lint: allow(fastpath-differential)' if it is not a "
          "kernel)"});
    }
  }
}

void check_test_registration(const std::filesystem::path& root,
                             const std::vector<FileSummary>& files,
                             std::vector<Finding>& out) {
  const std::filesystem::path cmake_lists = root / "tests" / "CMakeLists.txt";
  std::ifstream in(cmake_lists);
  if (!in) return;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string cmake_text = buffer.str();
  for (const FileSummary& f : files) {
    if (!starts_with(f.relative, "tests/")) continue;
    const std::string name = filename_of(f.relative);
    if (name.rfind("test_", 0) != 0 || !ends_with(name, ".cpp")) continue;
    if (f.file_allows.count("test-registration")) continue;
    if (cmake_text.find(name) == std::string::npos) {
      out.push_back(Finding{
          f.relative, 0, "test-registration",
          "test file is not listed in tests/CMakeLists.txt and will never "
          "run"});
    }
  }
}

void check_metric_docs(const std::filesystem::path& root,
                       const std::vector<FileSummary>& files,
                       std::vector<Finding>& out) {
  // Sites come from the token stream (identifier + '(' + string literal),
  // so a registration spelled inside a comment or string never counts.
  // Global rather than local: the check reads docs/OBSERVABILITY.md.
  std::string docs_text;
  {
    std::ifstream in(root / "docs" / "OBSERVABILITY.md");
    std::stringstream buffer;
    buffer << in.rdbuf();
    docs_text = buffer.str();  // empty when the docs file is absent
  }
  for (const FileSummary& f : files) {
    if (!starts_with(f.relative, "src/")) continue;
    if (f.file_allows.count("metric-docs")) continue;
    std::size_t last_line = 0;  // one finding per line
    for (const MetricSite& site : f.metric_sites) {
      if (site.line == last_line) continue;
      if (docs_text.find(site.name) != std::string::npos) continue;
      if (site.allowed) continue;
      out.push_back(Finding{
          f.relative, site.line, "metric-docs",
          "metric '" + site.name +
              "' is not documented in docs/OBSERVABILITY.md — add it to "
              "the metrics table (or mark the audited line "
              "'// lint:allow(metric-docs)')"});
      last_line = site.line;
    }
  }
}

/// range-for-temporary: the PR 6 bug shape. The range expression is a
/// postfix chain; track whether it ends as a reference into a temporary
/// that dies before the loop body runs. Return kinds of named calls come
/// from the repo-wide declaration map; unknown member calls conservatively
/// count as reference-returning (the dangerous direction), unknown base
/// calls as value-returning (a fresh temporary).
void check_range_for_temporary(const std::vector<FileSummary>& files,
                               std::vector<Finding>& out) {
  std::map<std::string, int> rets;
  for (const FileSummary& f : files) {
    for (const auto& [name, bits] : f.ret_kinds) rets[name] |= bits;
  }
  // Well-known std members that return by value, so chains like
  // `name().substr(1)` do not false-positive.
  for (const char* value_ret : {"substr", "str", "string", "to_string",
                                "stem", "extension", "filename", "clone"}) {
    rets.emplace(value_ret, kRetValue);
  }
  enum State { kLvalue, kTemp, kRefIntoTemp };
  for (const FileSummary& f : files) {
    if (!starts_with(f.relative, "src/")) continue;
    if (f.file_allows.count("range-for-temporary")) continue;
    for (const RangeForChain& chain : f.range_fors) {
      if (chain.complex || chain.allowed || chain.steps.empty()) continue;
      State st = kLvalue;
      std::string last_call;
      const RangeForStep& base = chain.steps.front();
      if (base.op == 'f') {
        const auto it = rets.find(base.name);
        const bool ref = it != rets.end() && (it->second & kRetRef) != 0;
        st = ref ? kLvalue : kTemp;
        last_call = base.name;
      }
      for (std::size_t s = 1; s < chain.steps.size(); ++s) {
        const RangeForStep& step = chain.steps[s];
        if (step.op == 'm') continue;  // member subobject: lifetime
                                       // extension keeps a temp alive
        bool ref = true;  // '[' indexing and unknown member calls
        if (step.op == 'c') {
          const auto it = rets.find(step.name);
          if (it != rets.end() && it->second == kRetValue) ref = false;
          last_call = step.name;
        }
        if (!ref) {
          st = kTemp;  // fresh temporary; the old one lives long enough
        } else if (st != kLvalue) {
          st = kRefIntoTemp;
        }
      }
      if (st != kRefIntoTemp) continue;
      out.push_back(Finding{
          f.relative, chain.line, "range-for-temporary",
          "range expression binds a reference into a temporary (the chain "
          "through '" + last_call +
              "(...)' dereferences a by-value result); the temporary is "
              "destroyed before the loop body runs — hoist the owning "
              "value into a named local, or mark the audited line "
              "'// lint:allow(range-for-temporary)'"});
    }
  }
}

}  // namespace

void run_local_rules(const std::string& relative, const FileContext& ctx,
                     FileSummary& out) {
  check_trace_guard(relative, ctx, out);
  check_include_hygiene(relative, ctx, out);
  check_explicit_memory_order(relative, ctx, out);
  check_no_nondeterminism_in_core(relative, ctx, out);
  check_lock_annotation_coverage(relative, ctx, out);
}

std::vector<Finding> run_global_rules(
    const std::filesystem::path& root,
    const std::vector<FileSummary>& summaries) {
  std::vector<Finding> out;
  check_heuristic_registry(summaries, out);
  check_fastpath_differential(summaries, out);
  check_test_registration(root, summaries, out);
  check_metric_docs(root, summaries, out);
  check_range_for_temporary(summaries, out);
  run_graph_rules(summaries, out);
  run_callgraph_rules(summaries, out);
  return out;
}

}  // namespace analyze
