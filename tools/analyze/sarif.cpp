// Minimal deterministic SARIF 2.1.0 writer. Only what GitHub code
// scanning needs to render findings as annotations: tool metadata, the
// rules referenced by results, and one result per finding with a physical
// location and a stable partial fingerprint. Determinism (sorted rules,
// sorted results, fixed version string, relative URIs) is pinned by the
// analyze_sarif_golden ctest.
#include <algorithm>
#include <map>
#include <sstream>

#include "analyze/engine.hpp"
#include "obs/json.hpp"

namespace analyze {
namespace {

/// `s` as a quoted JSON string literal, by the repository's one JSON string
/// writer (src/obs/json.cpp, compiled into analyze_core).
std::string json_string(std::string_view s) {
  std::string out;
  hcsched::obs::append_json_string(out, s);
  return out;
}

const std::map<std::string, std::string>& rule_descriptions() {
  static const std::map<std::string, std::string> desc = {
      {"heuristic-registry",
       "Every heuristic header directly under src/heuristics/ is included "
       "by src/heuristics/registry.cpp."},
      {"fastpath-differential",
       "Every kernel file under src/heuristics/fastpath/ is named by a "
       "tests/test_fastpath*.cpp differential suite."},
      {"trace-guard",
       "Raw observability calls outside src/obs/ sit in an #if "
       "HCSCHED_TRACE region or use the self-guarding macros."},
      {"test-registration",
       "Every tests/test_*.cpp is listed in tests/CMakeLists.txt."},
      {"include-hygiene",
       "Project includes are src/-relative: no \"src/\" prefix and no "
       "parent-relative paths."},
      {"explicit-memory-order",
       "Every std::atomic operation names an explicit std::memory_order."},
      {"no-nondeterminism-in-core",
       "Deterministic layers may not use ambient entropy, wall clocks, or "
       "iteration-order-unstable containers."},
      {"lock-annotation-coverage",
       "Every mutex member has a GUARDED_BY/PT_GUARDED_BY field naming "
       "it."},
      {"metric-docs",
       "Every literal metric name registered from src/ is documented in "
       "docs/OBSERVABILITY.md."},
      {"layering",
       "Includes follow the layering component DAG (see "
       "docs/STATIC_ANALYSIS.md)."},
      {"include-cycle", "The project include graph is acyclic."},
      {"unused-include",
       "A quoted direct include must provide at least one name the "
       "including file uses."},
      {"range-for-temporary",
       "A range-for range expression must not bind a reference into a "
       "temporary that dies before the loop body."},
      {"lock-order-cycle",
       "The cross-TU lock acquisition graph (core::MutexLock nesting plus "
       "ACQUIRE/REQUIRES annotations) is acyclic."},
      {"blocking-under-lock",
       "No call chain reaches stream I/O, CondVar::wait, or "
       "ThreadPool::submit while a core::MutexLock is held."},
      {"transitive-nondeterminism",
       "No call chain from a deterministic layer reaches a banned "
       "nondeterminism source, even through other TUs."},
      {"dead-symbol",
       "Every src/ function is reachable from a CLI entry point, test, "
       "bench, or registry factory."},
  };
  return desc;
}

std::string fingerprint_hex(std::uint64_t fp) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[fp & 0xF];
    fp >>= 4;
  }
  return out;
}

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings) {
  // Rules referenced by the results, sorted; the result objects point at
  // them by index.
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < rules.size(); ++i) rule_index[rules[i]] = i;

  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"hcsched_analyze\",\n"
      << "          \"version\": \"1.0.0\",\n"
      << "          \"informationUri\": "
         "\"docs/STATIC_ANALYSIS.md\",\n"
      << "          \"rules\": [";
  const auto& desc = rule_descriptions();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) out << ",";
    const auto d = desc.find(rules[i]);
    out << "\n            {\n"
        << "              \"id\": " << json_string(rules[i]) << ",\n"
        << "              \"shortDescription\": { \"text\": "
        << json_string(d == desc.end() ? rules[i] : d->second) << " }\n"
        << "            }";
  }
  if (!rules.empty()) out << "\n          ";
  out << "]\n"
      << "        }\n"
      << "      },\n"
      << "      \"columnKind\": \"utf16CodeUnits\",\n"
      << "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ",";
    out << "\n        {\n"
        << "          \"ruleId\": " << json_string(f.rule) << ",\n"
        << "          \"ruleIndex\": " << rule_index[f.rule] << ",\n"
        << "          \"level\": \"warning\",\n"
        << "          \"message\": { \"text\": " << json_string(f.message)
        << " },\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": { \"uri\": "
        << json_string(f.file) << " }";
    if (f.line != 0) {
      out << ",\n                \"region\": { \"startLine\": " << f.line
          << " }";
    }
    out << "\n              }\n"
        << "            }\n"
        << "          ],\n"
        << "          \"partialFingerprints\": {\n"
        << "            \"hcschedAnalyze/v1\": \""
        << fingerprint_hex(f.fingerprint) << "\"\n"
        << "          }\n"
        << "        }";
  }
  if (!findings.empty()) out << "\n      ";
  out << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace analyze
