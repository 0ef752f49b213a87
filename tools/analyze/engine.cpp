#include "analyze/engine.hpp"

#include "analyze/callgraph.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>

namespace fs = std::filesystem;

namespace analyze {
namespace {

bool skip_directory(const fs::path& dir) {
  const std::string name = dir.filename().string();
  return name == ".git" || name == "fixtures" || name.rfind("build", 0) == 0;
}

std::string to_relative(const fs::path& path, const fs::path& root) {
  std::string rel = path.lexically_relative(root).generic_string();
  return rel.empty() ? path.generic_string() : rel;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "hcsched_analyze: cannot write " << path.generic_string()
              << "\n";
    return false;
  }
  out << text;
  return true;
}

/// Line-number-independent identity: FNV-1a of rule|file|message plus an
/// ordinal among identical triples, so SARIF's partialFingerprints survive
/// edits that only shift lines.
void assign_fingerprints(std::vector<Finding>& findings) {
  std::map<std::string, int> ordinals;
  for (Finding& f : findings) {
    const std::string key = f.rule + "|" + f.file + "|" + f.message;
    const int ordinal = ordinals[key]++;
    f.fingerprint = fnv1a64(key + "|" + std::to_string(ordinal));
  }
}

}  // namespace

int run(const Options& opts) {
  std::error_code ec;
  const fs::path root = fs::canonical(opts.root, ec);
  if (ec) {
    std::cerr << "hcsched_analyze: cannot open root: " << ec.message()
              << "\n";
    return 2;
  }
  std::string table_error;
  if (!layering_table_valid(&table_error)) {
    std::cerr << "hcsched_analyze: " << table_error << "\n";
    return 2;
  }

  // Collect *.hpp / *.cpp, sorted for deterministic output.
  std::vector<std::pair<std::string, fs::path>> sources;
  fs::recursive_directory_iterator it(root), end;
  for (; it != end; ++it) {
    if (it->is_directory()) {
      if (skip_directory(it->path())) it.disable_recursion_pending();
      continue;
    }
    const std::string ext = it->path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    sources.emplace_back(to_relative(it->path(), root), it->path());
  }
  std::sort(sources.begin(), sources.end());

  std::vector<FileSummary> summaries;
  summaries.reserve(sources.size());
  for (const auto& [relative, path] : sources) {
    summaries.push_back(analyze_file(relative, read_file(path)));
  }

  if (opts.verbose) {
    std::cout << "hcsched_analyze: scanning " << summaries.size()
              << " source files under " << root.generic_string() << "\n";
  }

  if (!opts.callgraph_out.empty() &&
      !write_file(opts.callgraph_out, dump_callgraph(summaries))) {
    return 2;
  }

  std::vector<Finding> findings;
  for (const FileSummary& f : summaries) {
    findings.insert(findings.end(), f.findings.begin(), f.findings.end());
  }
  const std::vector<Finding> global = run_global_rules(root, summaries);
  findings.insert(findings.end(), global.begin(), global.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  assign_fingerprints(findings);

  for (const Finding& f : findings) {
    std::cout << f.file;
    if (f.line != 0) std::cout << ':' << f.line;
    std::cout << ": [" << f.rule << "] " << f.message << "\n";
  }
  if (findings.empty()) {
    if (opts.verbose) std::cout << "hcsched_analyze: clean\n";
  } else {
    std::cout << "hcsched_analyze: " << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s") << "\n";
  }
  if (!opts.sarif_out.empty() &&
      !write_file(opts.sarif_out, to_sarif(findings))) {
    return 2;
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace analyze
