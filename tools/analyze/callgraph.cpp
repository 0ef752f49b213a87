#include "analyze/callgraph.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "analyze/model.hpp"

namespace analyze {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// The deterministic layer the transitive-nondeterminism rule protects —
// same directories as the token-level no-nondeterminism-in-core rule.
bool in_deterministic_dir(std::string_view relative) {
  return starts_with(relative, "src/core/") ||
         starts_with(relative, "src/heuristics/") ||
         starts_with(relative, "src/etc/") ||
         starts_with(relative, "src/ga/");
}

// Taint barriers, mirroring the local rule's scope: src/rng/ exists
// precisely to fence randomness behind seeded, replayable interfaces, and
// src/obs/ is instrumentation whose output sits outside the determinism
// contract (compiled to no-ops under -DHCSCHED_TRACE=0, same exemption
// the layering rule grants its headers). Taint never propagates *out* of
// either.
bool taint_barrier(std::string_view relative) {
  return starts_with(relative, "src/rng/") ||
         starts_with(relative, "src/obs/");
}

// The annotation header's own ACQUIRE/REQUIRES arguments are parameter
// names ("mutex"), not real lock identities — contributing them to the
// lock graph would alias every caller's mutex into one node.
bool annotation_header(std::string_view relative) {
  return relative == "src/core/thread_annotations.hpp";
}

struct Def {
  const FileSummary* file;
  const FunctionRecord* rec;
};

struct ResolvedCall {
  const CallSite* call;
  std::vector<std::size_t> targets;  // indices into Index::defs
};

struct Index {
  std::vector<Def> defs;  // sorted by (file, line, qualified)
  std::vector<std::vector<ResolvedCall>> calls;     // per def
  std::vector<std::vector<std::size_t>> callees;    // per def, deduped
  std::vector<const FileSummary*> file_scopes;      // per-file pseudo-records
};

/// Member calls whose name collides with the STL container/string
/// vocabulary (`buffer_.size()`, `entries_.find(name)`) never resolve:
/// without receiver types, name matching would wire them to same-named
/// lock-acquiring methods of unrelated project classes and fabricate lock
/// cycles like RingBufferSink::size -> MetricsRegistry::size.
bool container_vocab(const std::string& name) {
  static const std::set<std::string> kVocab = {
      "size",     "empty",        "clear",  "find",    "count",
      "begin",    "end",          "rbegin", "rend",    "push_back",
      "pop_back", "push_front",   "pop_front",         "emplace",
      "emplace_back",             "insert", "erase",   "reserve",
      "resize",   "at",           "front",  "back",    "data",
      "c_str",    "substr",       "append", "assign",  "swap"};
  return kVocab.count(name) != 0;
}

/// Resolve an include spelling against the scanned tree: fixtures and
/// tools spell paths relative to the scan root or a component root, the
/// real tree spells src/-relative, tools/-relative, and bench-local paths.
const FileSummary* resolve_include(
    const std::string& path,
    const std::map<std::string, const FileSummary*>& by_rel) {
  static constexpr std::string_view kPrefixes[] = {
      "", "src/", "tools/", "bench/", "tests/"};
  for (std::string_view p : kPrefixes) {
    const auto it = by_rel.find(std::string(p) + path);
    if (it != by_rel.end()) return it->second;
  }
  return nullptr;
}

Index build_index(const std::vector<FileSummary>& summaries) {
  Index ix;
  std::map<std::string, const FileSummary*> by_rel;
  for (const FileSummary& f : summaries) by_rel[f.relative] = &f;

  for (const FileSummary& f : summaries) {
    for (const FunctionRecord& r : f.functions) {
      if (r.file_scope) {
        ix.file_scopes.push_back(&f);
      } else if (r.is_definition) {
        ix.defs.push_back(Def{&f, &r});
      }
    }
  }
  std::sort(ix.defs.begin(), ix.defs.end(),
            [](const Def& a, const Def& b) {
              return std::tie(a.file->relative, a.rec->line,
                              a.rec->qualified) <
                     std::tie(b.file->relative, b.rec->line,
                              b.rec->qualified);
            });

  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    by_name[ix.defs[i].rec->name].push_back(i);
  }

  // Transitive include closure per file (quoted includes only), memoized.
  std::map<const FileSummary*, std::set<const FileSummary*>> closures;
  auto closure =
      [&](const FileSummary* f) -> const std::set<const FileSummary*>& {
    const auto hit = closures.find(f);
    if (hit != closures.end()) return hit->second;
    std::set<const FileSummary*> seen;
    std::vector<const FileSummary*> work{f};
    while (!work.empty()) {
      const FileSummary* cur = work.back();
      work.pop_back();
      if (!seen.insert(cur).second) continue;
      for (const IncludeInfo& inc : cur->includes) {
        if (inc.angle) continue;
        if (const FileSummary* t = resolve_include(inc.path, by_rel)) {
          work.push_back(t);
        }
      }
    }
    return closures.emplace(f, std::move(seen)).first->second;
  };

  // Visible callable names per file: every name declared anywhere in the
  // include closure, plus names this file defines itself.
  std::map<const FileSummary*, std::set<std::string>> visible_memo;
  auto visible =
      [&](const FileSummary* f) -> const std::set<std::string>& {
    const auto hit = visible_memo.find(f);
    if (hit != visible_memo.end()) return hit->second;
    std::set<std::string> names;
    for (const FileSummary* g : closure(f)) {
      names.insert(g->declared.begin(), g->declared.end());
    }
    for (const FunctionRecord& r : f->functions) {
      if (!r.name.empty()) names.insert(r.name);
    }
    return visible_memo.emplace(f, std::move(names)).first->second;
  };

  ix.calls.resize(ix.defs.size());
  ix.callees.resize(ix.defs.size());
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    const Def& d = ix.defs[i];
    const std::set<std::string>& vis = visible(d.file);
    for (const CallSite& c : d.rec->calls) {
      if (c.member && c.qualifier.empty() && container_vocab(c.name)) {
        continue;
      }
      const auto cand = by_name.find(c.name);
      if (cand == by_name.end()) continue;
      if (!vis.count(c.name)) continue;
      std::vector<std::size_t> targets;
      if (!c.qualifier.empty()) {
        // An explicit qualifier must match — `std::to_string` does NOT
        // resolve to a project `TextTable::to_string`.
        const std::string suffix = c.qualifier + "::" + c.name;
        for (std::size_t t : cand->second) {
          const std::string& q = ix.defs[t].rec->qualified;
          if (q.size() >= suffix.size() &&
              q.compare(q.size() - suffix.size(), suffix.size(), suffix) ==
                  0) {
            targets.push_back(t);
          }
        }
      } else {
        targets = cand->second;
      }
      ix.calls[i].push_back(ResolvedCall{&c, targets});
      for (std::size_t t : targets) {
        if (t != i) ix.callees[i].push_back(t);
      }
    }
    std::sort(ix.callees[i].begin(), ix.callees[i].end());
    ix.callees[i].erase(
        std::unique(ix.callees[i].begin(), ix.callees[i].end()),
        ix.callees[i].end());
  }
  return ix;
}

std::string site_of(const Index& ix, std::size_t d) {
  return ix.defs[d].file->relative + ":" +
         std::to_string(ix.defs[d].rec->line);
}

bool file_allowed(const FileSummary& f, const char* rule,
                  const char* token) {
  return f.file_allows.count(rule) != 0 || f.file_allows.count(token) != 0;
}

// ------------------------------------------------------- lock-order-cycle

void check_lock_order(const Index& ix, std::vector<Finding>& out) {
  // Transitively acquirable mutexes per definition: direct guard
  // constructions, ACQUIRE annotations, then everything callees acquire.
  std::vector<std::set<std::string>> acq(ix.defs.size());
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    if (annotation_header(ix.defs[i].file->relative)) continue;
    for (const LockSite& l : ix.defs[i].rec->locks) {
      if (!l.allowed) acq[i].insert(l.mutex);
    }
    for (const std::string& a : ix.defs[i].rec->annot_acquires) {
      acq[i].insert(a);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < ix.defs.size(); ++i) {
      for (std::size_t t : ix.callees[i]) {
        for (const std::string& m : acq[t]) {
          if (acq[i].insert(m).second) changed = true;
        }
      }
    }
  }

  // Acquisition-order edges held -> acquired, first witness site wins.
  struct Witness {
    std::string file;
    std::size_t line;
  };
  std::map<std::string, std::map<std::string, Witness>> edges;
  auto add_edge = [&edges](const std::string& from, const std::string& to,
                           const std::string& file, std::size_t line) {
    if (from == to) return;
    auto& slot = edges[from];
    const auto it = slot.find(to);
    if (it == slot.end() || std::tie(file, line) <
                                std::tie(it->second.file, it->second.line)) {
      slot[to] = Witness{file, line};
    }
  };
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    const Def& d = ix.defs[i];
    if (annotation_header(d.file->relative)) continue;
    if (file_allowed(*d.file, "lock-order-cycle", "lock-order")) continue;
    for (const LockSite& l : d.rec->locks) {
      if (l.allowed) continue;
      for (const std::string& h : l.held) {
        add_edge(h, l.mutex, d.file->relative, l.line);
      }
    }
    for (const ResolvedCall& rc : ix.calls[i]) {
      if (rc.call->held.empty() || rc.call->allow_lock) continue;
      for (std::size_t t : rc.targets) {
        for (const std::string& m : acq[t]) {
          for (const std::string& h : rc.call->held) {
            add_edge(h, m, d.file->relative, rc.call->line);
          }
        }
      }
    }
  }

  // Cycle enumeration (iterative DFS, one report per node set, anchored
  // at the lexicographically first mutex).
  std::map<std::string, int> color;
  std::set<std::vector<std::string>> reported;
  for (const auto& [start, unused] : edges) {
    (void)unused;
    if (color[start] != 0) continue;
    std::vector<std::pair<std::string, std::size_t>> stack;
    stack.emplace_back(start, 0);
    color[start] = 1;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      const auto it = edges.find(node);
      if (it == edges.end() || idx >= it->second.size()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      auto edge_it = it->second.begin();
      std::advance(edge_it, static_cast<std::ptrdiff_t>(idx++));
      const std::string& next = edge_it->first;
      if (color[next] == 1) {
        std::vector<std::string> cycle;
        bool in_cycle = false;
        for (const auto& [n, i2] : stack) {
          (void)i2;
          if (n == next) in_cycle = true;
          if (in_cycle) cycle.push_back(n);
        }
        std::vector<std::string> key = cycle;
        std::sort(key.begin(), key.end());
        if (reported.insert(key).second && cycle.size() > 1) {
          const auto first = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), first, cycle.end());
          std::string path;
          std::string detail;
          for (std::size_t k = 0; k < cycle.size(); ++k) {
            const std::string& from = cycle[k];
            const std::string& to = cycle[(k + 1) % cycle.size()];
            path += from + " -> ";
            const Witness& w = edges.at(from).at(to);
            if (!detail.empty()) detail += "; ";
            detail += "'" + to + "' acquired while holding '" + from +
                      "' at " + w.file + ":" + std::to_string(w.line);
          }
          path += cycle.front();
          const Witness& anchor = edges.at(cycle.front()).at(
              cycle.size() > 1 ? cycle[1] : cycle.front());
          out.push_back(Finding{
              anchor.file, anchor.line, "lock-order-cycle",
              "lock acquisition cycle " + path + " (" + detail +
                  ") — potential deadlock; enforce one global acquisition "
                  "order or mark an audited site "
                  "'// lint:allow(lock-order)'"});
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

// ---------------------------------------------------- blocking-under-lock

struct BlockInfo {
  bool blocks = false;
  std::string what;  // primitive name
  std::string site;  // file:line of the primitive
  std::vector<std::string> path;  // qualified names, this def downward
};

std::vector<BlockInfo> compute_blocking(const Index& ix) {
  std::vector<BlockInfo> info(ix.defs.size());
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    for (const BlockSite& b : ix.defs[i].rec->blocks) {
      if (b.allowed) continue;
      info[i].blocks = true;
      info[i].what = b.what;
      info[i].site =
          ix.defs[i].file->relative + ":" + std::to_string(b.line);
      info[i].path = {ix.defs[i].rec->qualified};
      break;
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < ix.defs.size(); ++i) {
      if (info[i].blocks) continue;
      for (std::size_t t : ix.callees[i]) {
        if (!info[t].blocks || info[t].path.size() >= 6) continue;
        info[i].blocks = true;
        info[i].what = info[t].what;
        info[i].site = info[t].site;
        info[i].path = info[t].path;
        info[i].path.insert(info[i].path.begin(),
                            ix.defs[i].rec->qualified);
        changed = true;
        break;
      }
    }
  }
  return info;
}

void check_blocking_under_lock(const Index& ix,
                               const std::vector<BlockInfo>& blocking,
                               std::vector<Finding>& out) {
  std::set<std::string> seen;  // file|line|message dedupe
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    const Def& d = ix.defs[i];
    if (file_allowed(*d.file, "blocking-under-lock", "blocking-under-lock"))
      continue;
    // The primitives' own implementations (CondVar::wait and friends)
    // necessarily "block while holding" — that is their contract.
    if (annotation_header(d.file->relative)) continue;
    // Lines where this function hits a primitive *directly*: the direct
    // check below owns them (including the cv.wait(held-mutex) idiom);
    // re-reporting the same line through name-resolution of `.wait(` /
    // `.flush(` would double up.
    std::set<std::size_t> direct_lines;
    for (const BlockSite& b : d.rec->blocks) direct_lines.insert(b.line);
    // Direct primitive under a live lock.
    for (const BlockSite& b : d.rec->blocks) {
      if (b.held.empty() || b.allowed || b.wait_on_held) continue;
      const std::string msg =
          "'" + b.what + "' while holding lock '" + b.held.back() +
          "' — blocking under a core::MutexLock stalls every contender; "
          "drop the lock first or mark the audited line "
          "'// lint:allow(blocking-under-lock)'";
      if (seen.insert(d.file->relative + "|" + std::to_string(b.line) +
                      "|" + msg)
              .second) {
        out.push_back(
            Finding{d.file->relative, b.line, "blocking-under-lock", msg});
      }
    }
    // Call that transitively reaches a primitive while a lock is live.
    for (const ResolvedCall& rc : ix.calls[i]) {
      if (rc.call->held.empty() || rc.call->allow_blocking) continue;
      if (direct_lines.count(rc.call->line)) continue;
      for (std::size_t t : rc.targets) {
        if (!blocking[t].blocks) continue;
        std::string via;
        for (const std::string& q : blocking[t].path) {
          if (!via.empty()) via += " -> ";
          via += q;
        }
        const std::string msg =
            "call reaches '" + blocking[t].what + "' (" + via + ", " +
            blocking[t].site + ") while holding lock '" +
            rc.call->held.back() +
            "' — drop the lock before blocking or mark the audited call "
            "'// lint:allow(blocking-under-lock)'";
        if (seen.insert(d.file->relative + "|" +
                        std::to_string(rc.call->line) + "|" + msg)
                .second) {
          out.push_back(Finding{d.file->relative, rc.call->line,
                                "blocking-under-lock", msg});
        }
        break;  // one report per call site
      }
    }
  }
}

// ------------------------------------------------ transitive-nondeterminism

struct TaintInfo {
  bool tainted = false;
  bool direct = false;   // has its own TaintSite (local rule's business)
  std::string token;
  std::string site;
  std::vector<std::string> path;
};

std::vector<TaintInfo> compute_taint(const Index& ix) {
  std::vector<TaintInfo> info(ix.defs.size());
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    if (ix.defs[i].rec->taints.empty()) continue;
    const TaintSite& t = ix.defs[i].rec->taints.front();
    info[i].tainted = true;
    info[i].direct = true;
    info[i].token = t.token;
    info[i].site = ix.defs[i].file->relative + ":" + std::to_string(t.line);
    info[i].path = {ix.defs[i].rec->qualified};
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < ix.defs.size(); ++i) {
      if (info[i].tainted) continue;
      for (std::size_t t : ix.callees[i]) {
        if (!info[t].tainted || info[t].path.size() >= 6) continue;
        if (taint_barrier(ix.defs[t].file->relative)) continue;
        info[i].tainted = true;
        info[i].token = info[t].token;
        info[i].site = info[t].site;
        info[i].path = info[t].path;
        info[i].path.insert(info[i].path.begin(),
                            ix.defs[i].rec->qualified);
        changed = true;
        break;
      }
    }
  }
  return info;
}

void check_transitive_nondeterminism(const Index& ix,
                                     const std::vector<TaintInfo>& taint,
                                     std::vector<Finding>& out) {
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    const Def& d = ix.defs[i];
    if (!in_deterministic_dir(d.file->relative)) continue;
    if (taint[i].direct) continue;  // the token-level rule owns direct hits
    if (file_allowed(*d.file, "transitive-nondeterminism", "taint")) {
      continue;
    }
    // First call site (in source order) that reaches a tainted definition;
    // one finding per function keeps a tainted helper from spraying a
    // report onto every call line.
    bool reported = false;
    for (const ResolvedCall& rc : ix.calls[i]) {
      if (reported) break;
      if (rc.call->allow_taint) continue;
      for (std::size_t t : rc.targets) {
        if (!taint[t].tainted || taint_barrier(ix.defs[t].file->relative)) {
          continue;
        }
        std::string via = d.rec->qualified;
        for (const std::string& q : taint[t].path) via += " -> " + q;
        out.push_back(Finding{
            d.file->relative, rc.call->line, "transitive-nondeterminism",
            "call chain reaches banned nondeterminism source '" +
                taint[t].token + "' (" + via + "; source at " +
                taint[t].site +
                ") — the deterministic layer must stay replayable; route "
                "randomness through rng:: or mark the audited call "
                "'// lint:allow(taint)'"});
        reported = true;
        break;
      }
    }
  }
}

// -------------------------------------------------------------- dead-symbol

void check_dead_symbols(const Index& ix, std::vector<Finding>& out) {
  // Name-level liveness, deliberately unfiltered by visibility: a name
  // referenced anywhere live keeps every same-named definition alive
  // (over-approximate liveness = no false "dead" reports from overload
  // sets or virtual dispatch). Roots are the entry points outside src/ — the
  // CLI, tools, benches and examples. tests/ is not a root: a src/
  // function only a test calls is dead production code, so test files
  // neither keep anything alive nor get reported themselves.
  auto in_tests = [](const FileSummary& f) {
    return starts_with(f.relative, "tests/");
  };
  auto is_root = [&](const Def& d) {
    if (in_tests(*d.file)) return false;
    return !starts_with(d.file->relative, "src/") ||
           d.rec->name == "main" || d.rec->is_operator ||
           d.rec->is_special || d.rec->is_template || d.rec->allow_dead ||
           d.file->file_allows.count("dead-symbol") != 0;
  };
  std::set<std::string> live;
  std::vector<bool> absorbed(ix.defs.size(), false);
  for (const FileSummary* f : ix.file_scopes) {
    if (in_tests(*f)) continue;
    for (const FunctionRecord& r : f->functions) {
      if (r.file_scope) live.insert(r.refs.begin(), r.refs.end());
    }
  }
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    if (is_root(ix.defs[i])) {
      absorbed[i] = true;
      live.insert(ix.defs[i].rec->refs.begin(), ix.defs[i].rec->refs.end());
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < ix.defs.size(); ++i) {
      if (absorbed[i] || !live.count(ix.defs[i].rec->name)) continue;
      absorbed[i] = true;
      live.insert(ix.defs[i].rec->refs.begin(), ix.defs[i].rec->refs.end());
      changed = true;
    }
  }
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    const Def& d = ix.defs[i];
    if (in_tests(*d.file) || is_root(d) || live.count(d.rec->name)) {
      continue;
    }
    out.push_back(Finding{
        d.file->relative, d.rec->line, "dead-symbol",
        "function '" + d.rec->qualified +
            "' is reachable from no CLI entry point, tool, bench, example, "
            "or registry factory (tests do not count) — delete it or mark "
            "the definition '// lint:allow(dead-symbol)' with the reason"});
  }
}

}  // namespace

void run_callgraph_rules(const std::vector<FileSummary>& summaries,
                         std::vector<Finding>& out) {
  const Index ix = build_index(summaries);
  check_lock_order(ix, out);
  check_blocking_under_lock(ix, compute_blocking(ix), out);
  check_transitive_nondeterminism(ix, compute_taint(ix), out);
  check_dead_symbols(ix, out);
}

std::string dump_callgraph(const std::vector<FileSummary>& summaries) {
  const Index ix = build_index(summaries);
  std::ostringstream out;
  out << "# hcsched_analyze call graph v1\n";
  for (std::size_t i = 0; i < ix.defs.size(); ++i) {
    out << ix.defs[i].rec->qualified << " " << site_of(ix, i) << "\n";
    for (std::size_t t : ix.callees[i]) {
      out << "  -> " << ix.defs[t].rec->qualified << " " << site_of(ix, t)
          << "\n";
    }
  }
  return out.str();
}

}  // namespace analyze
