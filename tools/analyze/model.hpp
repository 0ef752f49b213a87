// Data model shared by the hcsched_analyze engine, rules and output
// writers.
//
// Per file the engine produces a FileSummary: everything the cross-file
// rules (include graph, layering, registry coverage, ...) need, plus the
// findings of the purely file-local rules. The cross-file rules run over
// summaries alone, never over tokens.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"
#include "analyze/symbols.hpp"

namespace analyze {

struct Finding {
  std::string file;   // path relative to the scanned root
  std::size_t line;   // 1-based; 0 = whole-file finding
  std::string rule;
  std::string message;
  // Stable identity for SARIF's partialFingerprints: FNV-1a of
  // rule|file|message plus an ordinal among identical triples, so it
  // survives unrelated edits that shift line numbers.
  std::uint64_t fingerprint = 0;
};

/// One #include directive, with the line-level allow escapes active on its
/// line (so the graph rules can honor them from the summary alone).
struct IncludeInfo {
  std::string path;  // as written between the delimiters
  std::size_t line = 0;
  bool angle = false;  // <...> (system) vs "..." (project)
  std::set<std::string> allows;
};

/// A metric-name registration site (metric-docs rule input).
struct MetricSite {
  std::string name;
  std::size_t line = 0;
  bool allowed = false;
};

/// One step of a range-for range expression's postfix chain.
/// op: 'b' base identifier (incl. this), 'f' base call f(...),
///     'c' member call .name(...), 'm' member access .name, 'i' index [..]
struct RangeForStep {
  char op = 'b';
  std::string name;
};

struct RangeForChain {
  std::size_t line = 0;
  bool allowed = false;
  bool complex = false;  // parser bailed out; rule skips the chain
  std::vector<RangeForStep> steps;
};

// Return-kind bits for the repo-wide method-name map the
// range-for-temporary rule consults.
constexpr int kRetValue = 1;
constexpr int kRetRef = 2;

struct FileSummary {
  std::string relative;  // '/'-separated, relative to the scanned root

  std::vector<IncludeInfo> includes;
  std::set<std::string> idents;     // code identifiers + directive words
  std::set<std::string> declared;   // names this file declares (headers)
  std::set<std::string> mentions;   // only for tests/test_fastpath*.cpp:
                                    // every word incl. comments/strings
  std::map<std::string, int> ret_kinds;  // method name -> kRet* bits
  std::vector<MetricSite> metric_sites;
  std::vector<RangeForChain> range_fors;
  std::vector<FunctionRecord> functions;  // symbol index (symbols.cpp)
  std::set<std::string> file_allows;  // hcsched-lint: allow(<rule-id>)
  std::vector<Finding> findings;      // file-local rules only
};

/// Transient per-file state the local rules run on (not kept in the
/// summary).
struct FileContext {
  std::vector<Token> tokens;    // code tokens, comments excluded
  std::vector<Token> comments;  // comment tokens, in order
  // Physical lines with comments fully blanked and string/char literal
  // contents blanked (delimiters kept; #include header-names preserved).
  // The ported line-oriented rules scan these, which is what makes them
  // string- and comment-aware.
  std::vector<std::string> code_lines;
  // Line -> unquoted string-literal values starting on that line.
  std::map<std::size_t, std::vector<std::string>> strings_by_line;
  // Line -> line-level allow tokens from comments covering that line.
  std::map<std::size_t, std::set<std::string>> line_allows;

  bool line_allowed(std::size_t line, const std::string& token) const {
    for (std::size_t l : {line, line > 1 ? line - 1 : line}) {
      auto it = line_allows.find(l);
      if (it != line_allows.end() && it->second.count(token)) return true;
    }
    return false;
  }
};

std::uint64_t fnv1a64(std::string_view data);

/// Lex `content` and run every file-local rule; returns the summary.
FileSummary analyze_file(const std::string& relative,
                         const std::string& content);

/// File-local rules (implemented in rules.cpp, invoked by analyze_file).
void run_local_rules(const std::string& relative, const FileContext& ctx,
                     FileSummary& out);

/// Cross-file rules over all summaries (include graph: cycles, layering,
/// unused direct includes; registry/differential/test-registration/
/// metric-docs; range-for-temporary via the repo-wide return-kind map).
std::vector<Finding> run_global_rules(
    const std::filesystem::path& root,
    const std::vector<FileSummary>& summaries);

/// Include-graph rules (layering DAG, include-cycle, unused-include),
/// invoked by run_global_rules. Implemented in graph.cpp.
void run_graph_rules(const std::vector<FileSummary>& summaries,
                     std::vector<Finding>& out);

/// Self-check of the hardcoded layering component table (every declared
/// dependency exists, table is acyclic). The CLI calls this at startup and
/// exits 2 on a config error.
bool layering_table_valid(std::string* error);

}  // namespace analyze
