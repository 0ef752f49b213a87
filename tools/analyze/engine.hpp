// Engine orchestration for hcsched_analyze: source collection, per-file
// analysis, the cross-file rules, and output (text findings on stdout, an
// optional SARIF file and call-graph dump).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "analyze/model.hpp"

namespace analyze {

struct Options {
  std::filesystem::path root;
  std::filesystem::path sarif_out;      // --sarif-out: SARIF 2.1.0 copy
  std::filesystem::path callgraph_out;  // --dump-callgraph artifact
  bool verbose = false;
};

/// Render findings as a SARIF 2.1.0 document (deterministic: rules and
/// results ordered, stable tool version, relative URIs).
std::string to_sarif(const std::vector<Finding>& findings);

/// Full analysis run. Returns the process exit code: 0 clean, 1 findings,
/// 2 usage/IO/config error.
int run(const Options& opts);

}  // namespace analyze
