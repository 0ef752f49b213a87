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

// Bumping this string invalidates every cached summary — do so whenever
// the summary LAYOUT changes (new record tags, field reordering).
constexpr std::string_view kCacheVersion = "hcsched-analyze-cache-v3";

// Engine/rule-set stamp, stored on the cache's second line and checked on
// load: bump it whenever a rule or the lexer changes BEHAVIOR without
// changing the serialized layout, so an edited rule can never serve stale
// cached findings. (Content hashes only catch edits to the *scanned*
// files, not to the analyzer itself.)
constexpr std::string_view kEngineStamp = "engine-v11-no-compiler-rules";

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

// ------------------------------------------------- cache (de)serialization

std::string enc(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\r') {
      static const char* hex = "0123456789abcdef";
      out += '%';
      out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
      out += hex[static_cast<unsigned char>(c) & 0xF];
    } else {
      out += c;
    }
  }
  return out;
}

std::string dec(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const auto nib = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = nib(s[i + 1]), lo = nib(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == ' ') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

// Flag bits for the serialized function records ('S' / 'C' tags).
constexpr int kFnDefinition = 1;
constexpr int kFnMember = 2;
constexpr int kFnTemplate = 4;
constexpr int kFnOperator = 8;
constexpr int kFnSpecial = 16;
constexpr int kFnFileScope = 32;
constexpr int kFnAllowDead = 64;
constexpr int kCallMember = 1;
constexpr int kCallAllowBlocking = 2;
constexpr int kCallAllowTaint = 4;
constexpr int kCallAllowLock = 8;

// Empty-string placeholder for fixed positional fields (enc() never emits
// a bare "-" for a nonempty identifier-ish value).
std::string enc_or_dash(const std::string& s) {
  return s.empty() ? std::string("-") : enc(s);
}
std::string dec_or_dash(const std::string& s) {
  return s == "-" ? std::string() : dec(s);
}

void save_cache(const fs::path& path,
                const std::vector<FileSummary>& summaries) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return;  // best effort; the cache is an optimization only
  out << kCacheVersion << "\n";
  out << "engine " << kEngineStamp << "\n";
  for (const FileSummary& f : summaries) {
    out << "F " << std::hex << f.hash << std::dec << " " << enc(f.relative)
        << "\n";
    for (const std::string& a : f.file_allows) out << "A " << enc(a) << "\n";
    for (const IncludeInfo& inc : f.includes) {
      out << "I " << inc.line << " " << (inc.angle ? 1 : 0) << " "
          << enc(inc.path);
      for (const std::string& a : inc.allows) out << " " << enc(a);
      out << "\n";
    }
    for (const MetricSite& m : f.metric_sites) {
      out << "M " << m.line << " " << (m.allowed ? 1 : 0) << " "
          << enc(m.name) << "\n";
    }
    for (const RangeForChain& r : f.range_fors) {
      out << "R " << r.line << " " << (r.allowed ? 1 : 0) << " "
          << (r.complex ? 1 : 0);
      for (const RangeForStep& s : r.steps) {
        out << " " << s.op << enc(s.name);
      }
      out << "\n";
    }
    for (const auto& [name, bits] : f.ret_kinds) {
      out << "T " << bits << " " << enc(name) << "\n";
    }
    out << "D";
    for (const std::string& n : f.declared) out << " " << enc(n);
    out << "\nN";
    for (const std::string& n : f.idents) out << " " << enc(n);
    out << "\nW";
    for (const std::string& n : f.mentions) out << " " << enc(n);
    out << "\n";
    for (const FunctionRecord& fn : f.functions) {
      int flags = 0;
      if (fn.is_definition) flags |= kFnDefinition;
      if (fn.is_member) flags |= kFnMember;
      if (fn.is_template) flags |= kFnTemplate;
      if (fn.is_operator) flags |= kFnOperator;
      if (fn.is_special) flags |= kFnSpecial;
      if (fn.file_scope) flags |= kFnFileScope;
      if (fn.allow_dead) flags |= kFnAllowDead;
      out << "S " << fn.line << " " << flags << " " << enc_or_dash(fn.name)
          << " " << enc_or_dash(fn.qualified);
      for (const std::string& a : fn.annot_acquires) out << " a" << enc(a);
      for (const std::string& r : fn.annot_requires) out << " r" << enc(r);
      out << "\n";
      for (const CallSite& c : fn.calls) {
        int cf = 0;
        if (c.member) cf |= kCallMember;
        if (c.allow_blocking) cf |= kCallAllowBlocking;
        if (c.allow_taint) cf |= kCallAllowTaint;
        if (c.allow_lock) cf |= kCallAllowLock;
        out << "C " << c.line << " " << cf << " " << enc(c.name) << " "
            << enc_or_dash(c.qualifier);
        for (const std::string& h : c.held) out << " " << enc(h);
        out << "\n";
      }
      for (const LockSite& l : fn.locks) {
        out << "L " << l.line << " " << (l.allowed ? 1 : 0) << " "
            << enc(l.mutex);
        for (const std::string& h : l.held) out << " " << enc(h);
        out << "\n";
      }
      for (const BlockSite& b : fn.blocks) {
        out << "B " << b.line << " " << (b.allowed ? 1 : 0) << " "
            << (b.wait_on_held ? 1 : 0) << " " << enc(b.what);
        for (const std::string& h : b.held) out << " " << enc(h);
        out << "\n";
      }
      for (const TaintSite& t : fn.taints) {
        out << "X " << t.line << " " << enc(t.token) << "\n";
      }
      out << "G";
      for (const std::string& r : fn.refs) out << " " << enc(r);
      out << "\n";
    }
    for (const Finding& v : f.findings) {
      out << "V " << v.line << " " << enc(v.rule) << " " << enc(v.message)
          << "\n";
    }
    out << "E\n";
  }
}

std::map<std::string, FileSummary> load_cache(const fs::path& path) {
  std::map<std::string, FileSummary> cache;
  std::ifstream in(path, std::ios::binary);
  if (!in) return cache;
  std::string line;
  if (!std::getline(in, line) || line != kCacheVersion) return cache;
  if (!std::getline(in, line) ||
      line != std::string("engine ") + std::string(kEngineStamp)) {
    return cache;  // analyzer changed behavior — discard everything
  }
  FileSummary cur;
  bool open = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::vector<std::string> f = split_fields(line);
    const std::string& tag = f[0];
    if (tag == "F") {
      if (f.size() < 3) continue;
      cur = FileSummary{};
      cur.hash = std::stoull(f[1], nullptr, 16);
      cur.relative = dec(f[2]);
      open = true;
    } else if (!open) {
      continue;
    } else if (tag == "A" && f.size() >= 2) {
      cur.file_allows.insert(dec(f[1]));
    } else if (tag == "I" && f.size() >= 4) {
      IncludeInfo inc;
      inc.line = std::stoul(f[1]);
      inc.angle = f[2] == "1";
      inc.path = dec(f[3]);
      for (std::size_t i = 4; i < f.size(); ++i) {
        inc.allows.insert(dec(f[i]));
      }
      cur.includes.push_back(std::move(inc));
    } else if (tag == "M" && f.size() >= 4) {
      cur.metric_sites.push_back(
          MetricSite{dec(f[3]), std::stoul(f[1]), f[2] == "1"});
    } else if (tag == "R" && f.size() >= 4) {
      RangeForChain chain;
      chain.line = std::stoul(f[1]);
      chain.allowed = f[2] == "1";
      chain.complex = f[3] == "1";
      for (std::size_t i = 4; i < f.size(); ++i) {
        if (f[i].empty()) continue;
        chain.steps.push_back(
            RangeForStep{f[i][0], dec(f[i].substr(1))});
      }
      cur.range_fors.push_back(std::move(chain));
    } else if (tag == "T" && f.size() >= 3) {
      cur.ret_kinds[dec(f[2])] = std::stoi(f[1]);
    } else if (tag == "D") {
      for (std::size_t i = 1; i < f.size(); ++i) {
        if (!f[i].empty()) cur.declared.insert(dec(f[i]));
      }
    } else if (tag == "N") {
      for (std::size_t i = 1; i < f.size(); ++i) {
        if (!f[i].empty()) cur.idents.insert(dec(f[i]));
      }
    } else if (tag == "W") {
      for (std::size_t i = 1; i < f.size(); ++i) {
        if (!f[i].empty()) cur.mentions.insert(dec(f[i]));
      }
    } else if (tag == "S" && f.size() >= 5) {
      FunctionRecord fn;
      fn.line = std::stoul(f[1]);
      const int flags = std::stoi(f[2]);
      fn.is_definition = (flags & kFnDefinition) != 0;
      fn.is_member = (flags & kFnMember) != 0;
      fn.is_template = (flags & kFnTemplate) != 0;
      fn.is_operator = (flags & kFnOperator) != 0;
      fn.is_special = (flags & kFnSpecial) != 0;
      fn.file_scope = (flags & kFnFileScope) != 0;
      fn.allow_dead = (flags & kFnAllowDead) != 0;
      fn.name = dec_or_dash(f[3]);
      fn.qualified = dec_or_dash(f[4]);
      for (std::size_t i = 5; i < f.size(); ++i) {
        if (f[i].size() < 2) continue;
        if (f[i][0] == 'a') fn.annot_acquires.push_back(dec(f[i].substr(1)));
        if (f[i][0] == 'r') fn.annot_requires.push_back(dec(f[i].substr(1)));
      }
      cur.functions.push_back(std::move(fn));
    } else if (tag == "C" && f.size() >= 5 && !cur.functions.empty()) {
      CallSite c;
      c.line = std::stoul(f[1]);
      const int cf = std::stoi(f[2]);
      c.member = (cf & kCallMember) != 0;
      c.allow_blocking = (cf & kCallAllowBlocking) != 0;
      c.allow_taint = (cf & kCallAllowTaint) != 0;
      c.allow_lock = (cf & kCallAllowLock) != 0;
      c.name = dec(f[3]);
      c.qualifier = dec_or_dash(f[4]);
      for (std::size_t i = 5; i < f.size(); ++i) {
        if (!f[i].empty()) c.held.push_back(dec(f[i]));
      }
      cur.functions.back().calls.push_back(std::move(c));
    } else if (tag == "L" && f.size() >= 4 && !cur.functions.empty()) {
      LockSite l;
      l.line = std::stoul(f[1]);
      l.allowed = f[2] == "1";
      l.mutex = dec(f[3]);
      for (std::size_t i = 4; i < f.size(); ++i) {
        if (!f[i].empty()) l.held.push_back(dec(f[i]));
      }
      cur.functions.back().locks.push_back(std::move(l));
    } else if (tag == "B" && f.size() >= 5 && !cur.functions.empty()) {
      BlockSite b;
      b.line = std::stoul(f[1]);
      b.allowed = f[2] == "1";
      b.wait_on_held = f[3] == "1";
      b.what = dec(f[4]);
      for (std::size_t i = 5; i < f.size(); ++i) {
        if (!f[i].empty()) b.held.push_back(dec(f[i]));
      }
      cur.functions.back().blocks.push_back(std::move(b));
    } else if (tag == "X" && f.size() >= 3 && !cur.functions.empty()) {
      cur.functions.back().taints.push_back(
          TaintSite{dec(f[2]), std::stoul(f[1])});
    } else if (tag == "G" && !cur.functions.empty()) {
      for (std::size_t i = 1; i < f.size(); ++i) {
        if (!f[i].empty()) cur.functions.back().refs.insert(dec(f[i]));
      }
    } else if (tag == "V" && f.size() >= 4) {
      cur.findings.push_back(Finding{cur.relative, std::stoul(f[1]),
                                     dec(f[2]), dec(f[3])});
    } else if (tag == "E") {
      cache[cur.relative] = std::move(cur);
      open = false;
    }
  }
  return cache;
}

// ------------------------------------------------------- baseline handling

std::string fingerprint_hex(std::uint64_t fp) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[fp & 0xF];
    fp >>= 4;
  }
  return out;
}

/// Line-number-independent identity: FNV-1a of rule|file|message plus an
/// ordinal among identical triples, so baseline entries survive edits that
/// only shift lines.
void assign_fingerprints(std::vector<Finding>& findings) {
  std::map<std::string, int> ordinals;
  for (Finding& f : findings) {
    const std::string key = f.rule + "|" + f.file + "|" + f.message;
    const int ordinal = ordinals[key]++;
    f.fingerprint = fnv1a64(key + "|" + std::to_string(ordinal));
  }
}

std::set<std::string> load_baseline(const fs::path& path, bool* ok) {
  std::set<std::string> entries;
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    entries.insert(space == std::string::npos ? line
                                              : line.substr(0, space));
  }
  return entries;
}

bool write_baseline_file(const fs::path& path,
                         const std::vector<Finding>& findings) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "# hcsched_analyze suppression baseline.\n"
      << "# One entry per accepted finding: <fingerprint> <rule> <file>.\n"
      << "# Fingerprints ignore line numbers, so entries survive unrelated "
         "edits.\n"
      << "# Regenerate with: hcsched_analyze --root . --write-baseline "
         "<this file>\n";
  for (const Finding& f : findings) {
    out << fingerprint_hex(f.fingerprint) << " " << f.rule << " " << f.file
        << "\n";
  }
  return true;
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

  std::map<std::string, FileSummary> cache;
  if (!opts.cache.empty()) cache = load_cache(opts.cache);

  std::vector<FileSummary> summaries;
  summaries.reserve(sources.size());
  std::size_t cache_hits = 0;
  for (const auto& [relative, path] : sources) {
    const std::string content = read_file(path);
    const auto cached = cache.find(relative);
    if (cached != cache.end() && cached->second.hash == fnv1a64(content)) {
      summaries.push_back(cached->second);
      ++cache_hits;
      continue;
    }
    summaries.push_back(analyze_file(relative, content));
  }
  if (!opts.cache.empty()) save_cache(opts.cache, summaries);

  if (opts.verbose) {
    std::cout << "hcsched_analyze: scanning " << summaries.size()
              << " source files under " << root.generic_string() << "\n";
    if (!opts.cache.empty()) {
      std::cout << "hcsched_analyze: cache hits " << cache_hits << "/"
                << summaries.size() << "\n";
    }
  }

  if (!opts.callgraph_out.empty()) {
    std::ofstream cg(opts.callgraph_out, std::ios::binary);
    if (!cg) {
      std::cerr << "hcsched_analyze: cannot write "
                << opts.callgraph_out.generic_string() << "\n";
      return 2;
    }
    cg << dump_callgraph(summaries);
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

  if (!opts.write_baseline.empty() &&
      !write_baseline_file(opts.write_baseline, findings)) {
    std::cerr << "hcsched_analyze: cannot write baseline "
              << opts.write_baseline.generic_string() << "\n";
    return 2;
  }

  std::size_t suppressed = 0;
  if (!opts.baseline.empty()) {
    bool ok = false;
    const std::set<std::string> baseline = load_baseline(opts.baseline, &ok);
    if (!ok) {
      std::cerr << "hcsched_analyze: cannot read baseline "
                << opts.baseline.generic_string() << "\n";
      return 2;
    }
    std::vector<Finding> kept;
    kept.reserve(findings.size());
    for (Finding& f : findings) {
      if (baseline.count(fingerprint_hex(f.fingerprint))) {
        ++suppressed;
      } else {
        kept.push_back(std::move(f));
      }
    }
    findings = std::move(kept);
  }

  // Primary output stream.
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!opts.out.empty()) {
    out_file.open(opts.out, std::ios::binary);
    if (!out_file) {
      std::cerr << "hcsched_analyze: cannot write "
                << opts.out.generic_string() << "\n";
      return 2;
    }
    out = &out_file;
  }
  if (opts.format == "sarif") {
    *out << to_sarif(findings);
  } else {
    for (const Finding& f : findings) {
      *out << f.file;
      if (f.line != 0) *out << ':' << f.line;
      *out << ": [" << f.rule << "] " << f.message << "\n";
    }
    if (findings.empty()) {
      if (opts.verbose) *out << "hcsched_analyze: clean\n";
    } else {
      *out << "hcsched_analyze: " << findings.size() << " finding"
           << (findings.size() == 1 ? "" : "s") << "\n";
    }
    if (suppressed > 0 && opts.verbose) {
      *out << "hcsched_analyze: " << suppressed
           << " baseline-suppressed\n";
    }
  }
  if (!opts.sarif_out.empty()) {
    std::ofstream sarif(opts.sarif_out, std::ios::binary);
    if (!sarif) {
      std::cerr << "hcsched_analyze: cannot write "
                << opts.sarif_out.generic_string() << "\n";
      return 2;
    }
    sarif << to_sarif(findings);
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace analyze
