// Include-graph rules: layering DAG enforcement, include-cycle detection,
// and unused-direct-include detection over src/, tools/, and bench/.
//
// Layering is enforced on *components*, not raw directories, because the
// real tree is finer-grained than the directory layout: src/core/ holds
// both the bottom layer (check/cancel/thread_annotations — depended on by
// everything) and the top-level algorithm driver (iterative/optimal — which
// legitimately calls down into heuristics and the thread pool). The
// component map below assigns every src/ file to a component; the declared
// direct-dependency table is closed transitively and an include edge is
// legal iff it stays inside a component or follows the closure.
// docs/STATIC_ANALYSIS.md mirrors this table — update both together.
//
// The observability instrumentation headers (obs/trace.hpp, counters.hpp,
// metrics.hpp, span.hpp) are includable from ANY component: with
// -DHCSCHED_TRACE=0 they compile to no-ops, so they behave like
// annotations, not a layer dependency.
#include <algorithm>
#include <map>

#include "analyze/model.hpp"

namespace analyze {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string stem_of(std::string_view relative) {
  const std::size_t slash = relative.rfind('/');
  std::string_view name =
      slash == std::string_view::npos ? relative : relative.substr(slash + 1);
  const std::size_t dot = name.rfind('.');
  return std::string(dot == std::string_view::npos ? name
                                                   : name.substr(0, dot));
}

// File-exact component assignments, consulted before the prefix map.
constexpr std::pair<std::string_view, std::string_view> kFileComponents[] = {
    {"src/core/check.hpp", "core/base"},
    {"src/core/check.cpp", "core/base"},
    {"src/core/cancel.hpp", "core/base"},
    {"src/core/cancel.cpp", "core/base"},
    {"src/core/thread_annotations.hpp", "core/base"},
    {"src/obs/report.hpp", "obs/report"},
    {"src/obs/report.cpp", "obs/report"},
    {"src/ga/genitor.hpp", "ga/genitor"},
    {"src/ga/genitor.cpp", "ga/genitor"},
    {"src/heuristics/registry.hpp", "heuristics/registry"},
    {"src/heuristics/registry.cpp", "heuristics/registry"},
    {"src/sim/thread_pool.hpp", "sim/pool"},
    {"src/sim/thread_pool.cpp", "sim/pool"},
    {"tools/hcsched_cli.cpp", "tools/cli"},
};

// Prefix assignments, first match wins (longer prefixes listed first).
constexpr std::pair<std::string_view, std::string_view> kPrefixComponents[] =
    {
        {"src/sim/fault/", "sim/fault"},
        {"src/core/", "core/algo"},
        {"src/obs/", "obs"},
        {"src/rng/", "rng"},
        {"src/etc/", "etc"},
        {"src/sched/", "sched"},
        {"src/ga/", "ga"},
        {"src/heuristics/localsearch/", "heuristics/localsearch"},
        {"src/heuristics/", "heuristics"},
        {"src/sim/", "sim"},
        {"src/report/", "report"},
        {"tools/analyze/", "tools/analyze"},
        {"tools/fuzz/", "tools/fuzz"},
        {"tools/bench_check/", "tools/bench_check"},
        {"bench/", "bench"},
};

// Declared DIRECT dependencies; the legality check uses the transitive
// closure. Kept intentionally explicit: adding an arrow here is a reviewed
// architecture decision, not a side effect of an include sneaking in.
const std::map<std::string, std::vector<std::string>>& component_deps() {
  static const std::map<std::string, std::vector<std::string>> deps = {
      {"core/base", {}},
      {"rng", {"core/base"}},
      {"obs", {"core/base", "rng"}},
      {"sim/fault", {"core/base", "rng"}},
      {"etc", {"core/base", "rng"}},
      {"sched", {"core/base", "etc"}},
      {"ga", {"core/base", "rng", "sched"}},
      {"heuristics",
       {"core/base", "rng", "etc", "sched", "ga", "sim/fault"}},
      {"ga/genitor", {"core/base", "ga", "heuristics"}},
      {"heuristics/localsearch", {"core/base", "ga", "heuristics"}},
      {"heuristics/registry",
       {"core/base", "heuristics", "heuristics/localsearch", "ga/genitor"}},
      {"sim/pool", {"core/base", "sim/fault"}},
      {"core/algo",
       {"core/base", "rng", "etc", "sched", "heuristics",
        "heuristics/registry", "sim/pool"}},
      {"sim",
       {"core/base", "core/algo", "rng", "etc", "sched", "ga", "heuristics",
        "heuristics/registry", "sim/fault", "sim/pool", "obs"}},
      {"obs/report",
       {"core/base", "core/algo", "rng", "etc", "sched", "obs", "report"}},
      {"report", {"core/base", "etc", "sched"}},
      // Drivers and harnesses above src/. The analyzer is dependency-free
      // by design (it must build before anything else is sane). Benches may
      // use the full study/driver surface but NOT GA/search internals — a
      // bench poking those marks the audited include
      // '// lint:allow(layering)'.
      {"tools/analyze", {}},
      {"tools/fuzz", {"core/base", "rng", "etc", "sched", "heuristics"}},
      {"tools/bench_check",
       {"core/base", "rng", "etc", "sched", "heuristics", "obs"}},
      {"tools/cli",
       {"core/base", "core/algo", "rng", "etc", "sched", "heuristics",
        "heuristics/registry", "obs", "obs/report", "report", "sim",
        "sim/fault"}},
      {"bench",
       {"core/base", "core/algo", "rng", "etc", "sched", "heuristics",
        "heuristics/registry", "obs", "report", "sim", "sim/fault"}},
  };
  return deps;
}

// Instrumentation headers includable from any component (no-ops under
// -DHCSCHED_TRACE=0).
bool instrumentation_exempt(std::string_view target_relative) {
  return target_relative == "src/obs/trace.hpp" ||
         target_relative == "src/obs/counters.hpp" ||
         target_relative == "src/obs/metrics.hpp" ||
         target_relative == "src/obs/span.hpp";
}

std::string component_of(std::string_view relative) {
  for (const auto& [file, comp] : kFileComponents) {
    if (relative == file) return std::string(comp);
  }
  for (const auto& [prefix, comp] : kPrefixComponents) {
    if (starts_with(relative, prefix)) return std::string(comp);
  }
  return {};
}

/// Transitive closure of component_deps(); closure[c] contains every
/// component c may (directly or indirectly) depend on.
const std::map<std::string, std::set<std::string>>& component_closure() {
  static const std::map<std::string, std::set<std::string>> closure = [] {
    std::map<std::string, std::set<std::string>> out;
    const auto& deps = component_deps();
    // Simple fixpoint; the table is tiny.
    for (const auto& [c, direct] : deps) {
      out[c].insert(direct.begin(), direct.end());
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (auto& [c, reach] : out) {
        std::set<std::string> add;
        for (const std::string& d : reach) {
          const auto it = out.find(d);
          if (it == out.end()) continue;
          for (const std::string& dd : it->second) {
            if (!reach.count(dd)) add.insert(dd);
          }
        }
        if (!add.empty()) {
          reach.insert(add.begin(), add.end());
          changed = true;
        }
      }
    }
    return out;
  }();
  return closure;
}

struct Edge {
  const FileSummary* from;
  const IncludeInfo* include;
  std::string target;  // resolved relative path of the included file
};

/// A file participates in the include-graph rules iff it lives in a
/// layered tree (tests/ stays out: test TUs include whatever they probe).
bool in_layered_tree(std::string_view relative) {
  return starts_with(relative, "src/") || starts_with(relative, "tools/") ||
         starts_with(relative, "bench/");
}

/// Resolve a quoted include spelling against the scanned tree. src/ spells
/// src/-relative paths, tools spell component-root-relative paths
/// ("analyze/model.hpp"), benches spell bench-local ("bench_common.hpp")
/// and src/-relative paths.
std::string resolve_target(
    const std::string& path,
    const std::map<std::string, const FileSummary*>& by_relative) {
  static constexpr std::string_view kPrefixes[] = {"", "src/", "tools/",
                                                   "bench/"};
  for (std::string_view p : kPrefixes) {
    std::string candidate = std::string(p) + path;
    if (by_relative.count(candidate)) return candidate;
  }
  return {};
}

/// Quoted project includes that resolve to a scanned file in a layered
/// tree.
std::vector<Edge> resolved_edges(
    const std::vector<FileSummary>& summaries,
    const std::map<std::string, const FileSummary*>& by_relative) {
  std::vector<Edge> edges;
  for (const FileSummary& f : summaries) {
    if (!in_layered_tree(f.relative)) continue;
    for (const IncludeInfo& inc : f.includes) {
      if (inc.angle) continue;
      const std::string target = resolve_target(inc.path, by_relative);
      if (!target.empty()) {
        edges.push_back(Edge{&f, &inc, target});
      }
    }
  }
  return edges;
}

void check_layering(const std::vector<FileSummary>& summaries,
                    const std::vector<Edge>& edges,
                    std::vector<Finding>& out) {
  for (const FileSummary& f : summaries) {
    if (!in_layered_tree(f.relative)) continue;
    if (component_of(f.relative).empty() &&
        !f.file_allows.count("layering")) {
      out.push_back(Finding{
          f.relative, 0, "layering",
          "file is in a layered tree (src/, tools/, bench/) but assigned "
          "to no layering component; extend the component map in "
          "tools/analyze/graph.cpp (and the table in "
          "docs/STATIC_ANALYSIS.md)"});
    }
  }
  const auto& closure = component_closure();
  for (const Edge& e : edges) {
    const std::string from = component_of(e.from->relative);
    const std::string to = component_of(e.target);
    if (from.empty() || to.empty() || from == to) continue;
    if (instrumentation_exempt(e.target)) continue;
    const auto it = closure.find(from);
    if (it != closure.end() && it->second.count(to)) continue;
    if (e.include->allows.count("layering")) continue;
    if (e.from->file_allows.count("layering")) continue;
    out.push_back(Finding{
        e.from->relative, e.include->line, "layering",
        "include crosses the layering DAG: component '" + from +
            "' may not depend on '" + to +
            "' (docs/STATIC_ANALYSIS.md has the allowed-edge table); move "
            "the code, add a reviewed edge, or mark the audited line "
            "'// lint:allow(layering)'"});
  }
}

void check_include_cycles(
    const std::map<std::string, const FileSummary*>& by_relative,
    const std::vector<Edge>& edges, std::vector<Finding>& out) {
  // Adjacency over src/ files, deterministic order.
  std::map<std::string, std::vector<std::string>> adj;
  for (const Edge& e : edges) {
    adj[e.from->relative].push_back(e.target);
  }
  for (auto& [node, next] : adj) {
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
  }
  // Iterative DFS with colors; on hitting a gray node, unwind the stack to
  // recover the cycle. Each cycle is reported once, anchored at its
  // lexicographically first member.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::set<std::vector<std::string>> reported;
  for (const auto& [start, unused] : adj) {
    (void)unused;
    if (color[start] != 0) continue;
    std::vector<std::pair<std::string, std::size_t>> stack;
    stack.emplace_back(start, 0);
    color[start] = 1;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      const auto it = adj.find(node);
      if (it == adj.end() || idx >= it->second.size()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      const std::string next = it->second[idx++];
      if (color[next] == 1) {
        // Gray: the stack from `next` to the top is a cycle.
        std::vector<std::string> cycle;
        bool in_cycle = false;
        for (const auto& [n, i] : stack) {
          (void)i;
          if (n == next) in_cycle = true;
          if (in_cycle) cycle.push_back(n);
        }
        std::vector<std::string> key = cycle;
        std::sort(key.begin(), key.end());
        if (reported.insert(key).second) {
          bool allowed = false;
          for (const std::string& member : cycle) {
            const auto m = by_relative.find(member);
            if (m != by_relative.end() &&
                m->second->file_allows.count("include-cycle")) {
              allowed = true;
            }
          }
          if (!allowed) {
            // Rotate so the anchor file leads the printed path.
            const auto first =
                std::min_element(cycle.begin(), cycle.end());
            std::rotate(cycle.begin(), first, cycle.end());
            std::string path;
            for (const std::string& member : cycle) {
              path += member;
              path += " -> ";
            }
            path += cycle.front();
            out.push_back(Finding{
                cycle.front(), 0, "include-cycle",
                "include cycle: " + path +
                    " — break the cycle with a forward declaration or an "
                    "interface header"});
          }
        }
        continue;
      }
      if (color[next] == 0) {
        color[next] = 1;
        stack.emplace_back(next, 0);
      }
    }
  }
}

void check_unused_includes(
    const std::map<std::string, const FileSummary*>& by_relative,
    const std::vector<Edge>& edges, std::vector<Finding>& out) {
  // "Provides" semantics: an include is used when the includer uses any
  // name declared by the header OR by anything the header transitively
  // includes. Direct-only intersection would flag load-bearing umbrella
  // includes (e.g. a header whose nested include re-exports `Schedule`
  // into the includer's namespace via a using-declaration).
  std::map<std::string, std::set<std::string>> provides_memo;
  auto provides = [&](const std::string& rel) -> const std::set<std::string>& {
    const auto hit = provides_memo.find(rel);
    if (hit != provides_memo.end()) return hit->second;
    std::set<std::string> names;
    std::set<std::string> visited;
    std::vector<std::string> work{rel};
    while (!work.empty()) {
      const std::string cur = work.back();
      work.pop_back();
      if (!visited.insert(cur).second) continue;
      const auto it = by_relative.find(cur);
      if (it == by_relative.end()) continue;
      names.insert(it->second->declared.begin(),
                   it->second->declared.end());
      for (const IncludeInfo& inc : it->second->includes) {
        if (inc.angle) continue;
        const std::string t = resolve_target(inc.path, by_relative);
        if (!t.empty()) work.push_back(t);
      }
    }
    return provides_memo.emplace(rel, std::move(names)).first->second;
  };
  for (const Edge& e : edges) {
    if (e.from->file_allows.count("unused-include")) continue;
    if (e.include->allows.count("unused-include")) continue;
    // A source file's own header re-exports its interface; never flagged.
    if (stem_of(e.from->relative) == stem_of(e.target)) continue;
    const std::set<std::string>& names = provides(e.target);
    // A header providing nothing we can see (macro-only shims, fixture
    // stubs) is out of scope for this heuristic.
    if (names.empty()) continue;
    bool used = false;
    for (const std::string& name : names) {
      if (e.from->idents.count(name)) {
        used = true;
        break;
      }
    }
    if (used) continue;
    out.push_back(Finding{
        e.from->relative, e.include->line, "unused-include",
        "no name provided by '" + e.include->path +
            "' (directly or transitively) is used in this file — drop "
            "the include (or mark the audited line "
            "'// lint:allow(unused-include)')"});
  }
}

}  // namespace

bool layering_table_valid(std::string* error) {
  const auto& deps = component_deps();
  // Every declared dependency must itself be a component.
  for (const auto& [c, direct] : deps) {
    for (const std::string& d : direct) {
      if (!deps.count(d)) {
        if (error) *error = "component '" + c + "' depends on unknown '" +
                            d + "'";
        return false;
      }
    }
  }
  // Kahn toposort: the table must be a DAG.
  std::map<std::string, std::size_t> indegree;
  for (const auto& [c, direct] : deps) {
    indegree[c];  // ensure present
    for (const std::string& d : direct) ++indegree[d];
  }
  std::vector<std::string> ready;
  for (const auto& [c, n] : indegree) {
    if (n == 0) ready.push_back(c);
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    const std::string c = ready.back();
    ready.pop_back();
    ++seen;
    const auto it = deps.find(c);
    if (it == deps.end()) continue;
    for (const std::string& d : it->second) {
      if (--indegree[d] == 0) ready.push_back(d);
    }
  }
  if (seen != indegree.size()) {
    if (error) *error = "layering component table contains a cycle";
    return false;
  }
  return true;
}

void run_graph_rules(const std::vector<FileSummary>& summaries,
                     std::vector<Finding>& out) {
  std::map<std::string, const FileSummary*> by_relative;
  for (const FileSummary& f : summaries) by_relative[f.relative] = &f;
  const std::vector<Edge> edges = resolved_edges(summaries, by_relative);
  check_layering(summaries, edges, out);
  check_include_cycles(by_relative, edges, out);
  check_unused_includes(by_relative, edges, out);
}

}  // namespace analyze
