#include "analyze/symbols.hpp"

#include <cctype>
#include <set>

#include "analyze/model.hpp"

namespace analyze {
namespace {

bool is_word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// Full keyword set: keywords never name a function, never count as a
// liveness reference, and terminate qualified-id runs.
bool is_keyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "alignas",  "alignof",  "auto",     "bool",      "break",
      "case",     "catch",    "char",     "class",     "co_await",
      "co_return","co_yield", "const",    "consteval", "constexpr",
      "constinit","continue", "decltype", "default",   "delete",
      "do",       "double",   "else",     "enum",      "explicit",
      "extern",   "false",    "float",    "for",       "friend",
      "goto",     "if",       "inline",   "int",       "long",
      "mutable",  "namespace","new",      "noexcept",  "nullptr",
      "operator", "private",  "protected","public",    "register",
      "requires", "return",   "short",    "signed",    "sizeof",
      "static",   "struct",   "switch",   "template",  "this",
      "throw",    "true",     "try",      "typedef",   "typeid",
      "typename", "union",    "unsigned", "using",     "virtual",
      "void",     "volatile", "while",
  };
  return kw.count(t) != 0;
}

std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i,
                          std::string_view open, std::string_view close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].kind == Tok::Punct && toks[i].text == open) ++depth;
    if (toks[i].kind == Tok::Punct && toks[i].text == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return toks.size();
}

/// The banned nondeterminism sources, shared with the token-level
/// no-nondeterminism-in-core rule: identifier-level equivalents of its
/// substring list, so the records agree with what that rule reports.
struct TaintSpec {
  const char* ident;
  const char* token;   // spelled as the local rule spells it
  bool needs_call;     // only taints when followed by '('
};
constexpr TaintSpec kTaintSpecs[] = {
    {"rand", "rand(", true},
    {"srand", "srand(", true},
    {"time", "time(", true},
    {"random_device", "std::random_device", false},
    {"system_clock", "std::chrono::system_clock", false},
    {"unordered_map", "std::unordered_map", false},
    {"unordered_set", "std::unordered_set", false},
};

/// Recognizer state machine over the shared token stream. One instance
/// per file; appends FunctionRecords (plus the file-scope record) to the
/// summary.
class SymbolIndexer {
 public:
  SymbolIndexer(const FileContext& ctx, FileSummary& out)
      : ctx_(ctx), out_(out) {}

  void run() {
    build_tokens();
    const std::size_t n = toks_.size();
    std::size_t i = 0;
    while (i < n) {
      if (in_fn_) {
        i = body_token(i);
        continue;
      }
      const Token& t = toks_[i];
      if (t.kind == Tok::Punct) {
        if (t.text == "{") {
          ++depth_;
          scopes_.push_back({Scope::kBlock, "", depth_});
          ++i;
          continue;
        }
        if (t.text == "}") {
          if (depth_ > 0) --depth_;
          pop_scopes();
          ++i;
          continue;
        }
        if (t.text == ";") {
          pending_template_ = false;  // `template<...> void f(...);`
          ++i;
          continue;
        }
        if (t.text == "~" && i + 1 < n &&
            toks_[i + 1].kind == Tok::Identifier) {
          const std::size_t ni = try_function(i);
          if (ni != i) {
            i = ni;
            continue;
          }
        }
        ++i;
        continue;
      }
      if (t.kind != Tok::Identifier) {
        ++i;
        continue;
      }
      if (t.text == "template") {
        i = handle_template(i);
        continue;
      }
      if (t.text == "namespace") {
        i = handle_namespace(i);
        continue;
      }
      if ((t.text == "class" || t.text == "struct" || t.text == "union") &&
          !(i > 0 && toks_[i - 1].kind == Tok::Identifier &&
            toks_[i - 1].text == "enum")) {
        const std::size_t ni = handle_class(i);
        if (ni != i) {
          i = ni;
          continue;
        }
      }
      // `operator` is a keyword but also opens a free operator definition
      // (`bool operator==(...) {`), so it alone is allowed through.
      if (!is_keyword(t.text) || t.text == "operator") {
        const std::size_t ni = try_function(i);
        if (ni != i) {
          i = ni;
          continue;
        }
        if (!is_keyword(t.text)) file_scope_.refs.insert(t.text);
      }
      ++i;
    }
    if (in_fn_) close_function();
    file_scope_.file_scope = true;
    out_.functions.push_back(std::move(file_scope_));
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kBlock };
    Kind kind;
    std::string name;
    int depth;  // brace depth owned by this scope's '{'
  };
  struct Held {
    int depth;  // brace depth the guard was constructed at
    std::string mutex;
  };

  const FileContext& ctx_;
  FileSummary& out_;
  std::vector<Token> toks_;
  FunctionRecord file_scope_;
  std::vector<Scope> scopes_;
  std::vector<Held> held_;
  FunctionRecord fn_;
  std::string class_ctx_;
  bool in_fn_ = false;
  bool pending_template_ = false;
  int depth_ = 0;
  int body_depth_ = 0;

  const std::string& tok(std::size_t i) const { return toks_[i].text; }
  bool tok_is(std::size_t i, std::string_view s) const {
    return i < toks_.size() && toks_[i].kind == Tok::Punct &&
           toks_[i].text == s;
  }

  /// Drop tokens on preprocessor-directive logical lines (a #define body
  /// would unbalance brace tracking); their identifiers become file-scope
  /// references so macro-expanded helpers stay live.
  void build_tokens() {
    std::set<std::size_t> directive_lines;
    for (const Token& t : ctx_.tokens) {
      if (t.kind != Tok::Directive) continue;
      std::size_t ln = t.line;
      for (;;) {
        directive_lines.insert(ln);
        if (ln > ctx_.code_lines.size()) break;
        const std::string& s = ctx_.code_lines[ln - 1];
        const std::size_t e = s.find_last_not_of(" \t");
        if (e == std::string::npos || s[e] != '\\') break;
        ++ln;
      }
    }
    for (const Token& t : ctx_.tokens) {
      if (directive_lines.count(t.line)) {
        if (t.kind == Tok::Identifier && !is_keyword(t.text)) {
          file_scope_.refs.insert(t.text);
        }
        continue;
      }
      toks_.push_back(t);
    }
  }

  void pop_scopes() {
    while (!scopes_.empty() && scopes_.back().depth > depth_) {
      scopes_.pop_back();
    }
  }

  /// Member-naming idiom: a bare trailing-underscore identifier inside a
  /// member function denotes a data member — qualify it with the class so
  /// same-named mutexes of different classes stay distinct lock nodes.
  std::string qualify(const std::string& expr) const {
    if (expr.empty() || class_ctx_.empty()) return expr;
    for (char c : expr) {
      if (!is_word_char(c)) return expr;
    }
    if (expr.back() != '_') return expr;
    return class_ctx_ + "::" + expr;
  }

  std::vector<std::string> held_names() const {
    std::vector<std::string> v;
    v.reserve(held_.size());
    for (const Held& h : held_) v.push_back(h.mutex);
    return v;
  }

  std::size_t handle_template(std::size_t i) {
    std::size_t j = i + 1;
    if (tok_is(j, "<")) j = skip_balanced(toks_, j, "<", ">");
    pending_template_ = true;
    return j;
  }

  std::size_t handle_namespace(std::size_t i) {
    const std::size_t n = toks_.size();
    std::size_t j = i + 1;
    std::string nm;
    while (j < n && toks_[j].kind == Tok::Identifier) {
      if (!nm.empty()) nm += "::";
      nm += toks_[j].text;
      ++j;
      if (tok_is(j, "::")) {
        ++j;
        continue;
      }
      break;
    }
    if (tok_is(j, "{")) {
      ++depth_;
      scopes_.push_back({Scope::kNamespace, nm, depth_});
      return j + 1;
    }
    if (tok_is(j, "=")) {  // namespace alias
      while (j < n && !tok_is(j, ";")) ++j;
      return j < n ? j + 1 : n;
    }
    return i + 1;  // `using namespace ...;` etc. — rescan normally
  }

  std::size_t handle_class(std::size_t i) {
    const std::size_t n = toks_.size();
    std::size_t j = i + 1;
    // Skip [[attributes]], alignas(...), and capability macros like
    // HCSCHED_CAPABILITY("mutex") between the keyword and the name.
    for (;;) {
      if (j + 1 < n && tok_is(j, "[") && tok_is(j + 1, "[")) {
        j = skip_balanced(toks_, j, "[", "]");
        if (tok_is(j, "]")) ++j;
        continue;
      }
      if (j < n && toks_[j].kind == Tok::Identifier &&
          (toks_[j].text.rfind("HCSCHED_", 0) == 0 ||
           toks_[j].text == "alignas")) {
        ++j;
        if (tok_is(j, "(")) j = skip_balanced(toks_, j, "(", ")");
        continue;
      }
      break;
    }
    std::string nm;
    if (j < n && toks_[j].kind == Tok::Identifier &&
        !is_keyword(toks_[j].text)) {
      nm = toks_[j].text;
      ++j;
    }
    // Scan the (optional) final specifier / base clause to the body brace.
    while (j < n) {
      if (tok_is(j, "{")) {
        ++depth_;
        scopes_.push_back({Scope::kClass, nm, depth_});
        pending_template_ = false;
        return j + 1;
      }
      if (tok_is(j, ";") || tok_is(j, "(") || tok_is(j, "=") ||
          tok_is(j, ")") || tok_is(j, ">")) {
        return i + 1;  // forward declaration / type mention — rescan
      }
      if (toks_[j].kind == Tok::Identifier && !is_keyword(toks_[j].text)) {
        file_scope_.refs.insert(toks_[j].text);  // base classes
      }
      ++j;
    }
    return i + 1;
  }

  /// Attempt to parse a function definition whose declarator starts at
  /// toks_[i] (an identifier, or `~` for an inline destructor). Returns i
  /// unchanged when the shape does not match; on success consumes through
  /// the body's opening '{' and enters body mode.
  std::size_t try_function(std::size_t i) {
    const std::size_t n = toks_.size();
    std::size_t j = i;
    std::string name;
    std::vector<std::string> quals;
    bool is_op = false;
    bool special = false;

    if (tok_is(j, "~")) {
      if (j + 1 >= n || toks_[j + 1].kind != Tok::Identifier) return i;
      name = "~" + toks_[j + 1].text;
      special = true;
      j += 2;
    } else {
      for (;;) {
        if (j >= n) return i;
        if (toks_[j].kind == Tok::Identifier &&
            toks_[j].text == "operator") {
          std::size_t k = j + 1;
          if (tok_is(k, "(") && tok_is(k + 1, ")")) {
            name = "operator()";
            k += 2;
          } else if (tok_is(k, "[") && tok_is(k + 1, "]")) {
            name = "operator[]";
            k += 2;
          } else if (k < n && toks_[k].kind == Tok::Punct) {
            name = "operator";
            while (k < n && toks_[k].kind == Tok::Punct &&
                   toks_[k].text != "(") {
              name += toks_[k].text;
              ++k;
            }
          } else if (k < n && toks_[k].kind == Tok::Identifier) {
            name = "operator ";  // conversion / operator new
            while (k < n && !tok_is(k, "(")) {
              name += toks_[k].text;
              ++k;
            }
          } else {
            return i;
          }
          is_op = true;
          j = k;
          break;
        }
        if (toks_[j].kind != Tok::Identifier || is_keyword(toks_[j].text)) {
          return i;
        }
        const std::string id = toks_[j].text;
        ++j;
        std::size_t after_tpl = j;
        if (tok_is(j, "<")) {
          after_tpl = skip_balanced(toks_, j, "<", ">");
        }
        if (tok_is(after_tpl, "::")) {
          quals.push_back(id);
          j = after_tpl + 1;
          if (tok_is(j, "~")) {  // out-of-line destructor Foo::~Foo
            if (j + 1 >= n || toks_[j + 1].kind != Tok::Identifier) {
              return i;
            }
            name = "~" + toks_[j + 1].text;
            special = true;
            j += 2;
            break;
          }
          continue;
        }
        name = id;
        j = after_tpl;  // allow an explicit specialization name<...>(
        break;
      }
    }

    if (!tok_is(j, "(")) return i;
    const std::size_t params_open = j;
    j = skip_balanced(toks_, j, "(", ")");
    if (j >= n) return i;

    // Modifier run: cv/ref qualifiers, noexcept(...), trailing return,
    // thread-safety annotation macros (whose ACQUIRE/REQUIRES arguments we
    // keep), then '{' (definition), ';' (declaration — not stored),
    // '= default/delete/0;', or ':' (constructor initializer list).
    std::vector<std::string> acq;
    std::vector<std::string> req;
    for (;;) {
      if (j >= n) return i;
      const Token& m = toks_[j];
      if (m.kind == Tok::Identifier) {
        if (is_keyword(m.text) && m.text != "const" &&
            m.text != "noexcept" && m.text != "mutable" &&
            m.text != "throw" && m.text != "requires" &&
            m.text != "volatile") {
          return i;  // e.g. `return foo(x)` leaking in — not a declarator
        }
        const std::string mt = m.text;
        ++j;
        if (tok_is(j, "(")) {
          const std::size_t args_open = j;
          j = skip_balanced(toks_, j, "(", ")");
          if (mt.rfind("HCSCHED_", 0) == 0) {
            std::vector<std::string> args =
                split_args(args_open, j > 0 ? j : args_open);
            if (mt.find("ACQUIRE") != std::string::npos) {
              acq.insert(acq.end(), args.begin(), args.end());
            } else if (mt.find("REQUIRES") != std::string::npos) {
              req.insert(req.end(), args.begin(), args.end());
            }
          }
        }
        continue;
      }
      if (m.kind == Tok::Punct &&
          (m.text == "&" || m.text == "&&")) {  // ref-qualifier
        ++j;
        continue;
      }
      if (m.kind == Tok::Punct && m.text == "->") {  // trailing return
        ++j;
        while (j < n) {
          if (toks_[j].kind == Tok::Identifier) {
            ++j;
            continue;
          }
          if (tok_is(j, "<")) {
            j = skip_balanced(toks_, j, "<", ">");
            continue;
          }
          if (tok_is(j, "::") || tok_is(j, "*") || tok_is(j, "&")) {
            ++j;
            continue;
          }
          break;
        }
        continue;
      }
      break;
    }
    if (j >= n) return i;

    if (tok_is(j, ":")) {
      // Constructor initializer list: `name(...)` or `name{...}` items
      // separated by commas; the first '{' not directly after an item
      // name opens the body.
      ++j;
      for (;;) {
        bool saw_name = false;
        while (j < n &&
               (toks_[j].kind == Tok::Identifier || tok_is(j, "::"))) {
          saw_name = toks_[j].kind == Tok::Identifier || saw_name;
          ++j;
          if (tok_is(j, "<")) j = skip_balanced(toks_, j, "<", ">");
        }
        if (j >= n) return i;
        if (tok_is(j, "(")) {
          j = skip_balanced(toks_, j, "(", ")");
        } else if (tok_is(j, "{") && saw_name) {
          j = skip_balanced(toks_, j, "{", "}");
        } else if (tok_is(j, "{")) {
          break;  // the body
        } else {
          return i;
        }
        if (tok_is(j, ",")) {
          ++j;
          continue;
        }
        break;
      }
    }
    if (!tok_is(j, "{")) return i;

    // Definition confirmed — build the record.
    FunctionRecord fn;
    fn.name = name;
    fn.line = toks_[i].line;
    fn.is_definition = true;
    fn.is_operator = is_op;
    fn.is_template = pending_template_;
    pending_template_ = false;
    std::string q;
    for (const Scope& s : scopes_) {
      if (s.kind != Scope::kBlock && !s.name.empty()) q += s.name + "::";
    }
    for (const std::string& s : quals) q += s + "::";
    q += name;
    fn.qualified = q;

    class_ctx_.clear();
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass && !it->name.empty()) {
        class_ctx_ = it->name;
        break;
      }
    }
    if (class_ctx_.empty() && !quals.empty()) {
      const std::string& lq = quals.back();
      if (!lq.empty() &&
          std::isupper(static_cast<unsigned char>(lq[0])) != 0) {
        class_ctx_ = lq;
      }
    }
    fn.is_member = !class_ctx_.empty();
    fn.is_special =
        special || (!class_ctx_.empty() && name == class_ctx_);
    fn.allow_dead = ctx_.line_allowed(fn.line, "dead-symbol");
    for (const std::string& a : acq) fn.annot_acquires.push_back(qualify(a));
    for (const std::string& a : req) fn.annot_requires.push_back(qualify(a));
    for (std::size_t k = i; k < j; ++k) {
      if (toks_[k].kind == Tok::Identifier && !is_keyword(toks_[k].text)) {
        fn.refs.insert(toks_[k].text);
      }
    }
    (void)params_open;

    fn_ = std::move(fn);
    in_fn_ = true;
    ++depth_;  // the body '{'
    body_depth_ = depth_;
    held_.clear();
    for (const std::string& r : fn_.annot_requires) {
      held_.push_back({body_depth_, r});
    }
    return j + 1;
  }

  void close_function() {
    in_fn_ = false;
    held_.clear();
    out_.functions.push_back(std::move(fn_));
    fn_ = FunctionRecord{};
    class_ctx_.clear();
  }

  std::size_t body_token(std::size_t i) {
    const Token& t = toks_[i];
    if (t.kind == Tok::Punct) {
      if (t.text == "{") {
        ++depth_;
        return i + 1;
      }
      if (t.text == "}") {
        if (depth_ > 0) --depth_;
        while (!held_.empty() && held_.back().depth > depth_) {
          held_.pop_back();
        }
        if (depth_ < body_depth_) close_function();
        return i + 1;
      }
      return i + 1;
    }
    if (t.kind != Tok::Identifier || is_keyword(t.text)) return i + 1;
    fn_.refs.insert(t.text);
    if (t.text == "MutexLock" || t.text == "lock_guard" ||
        t.text == "unique_lock" || t.text == "scoped_lock") {
      return handle_guard(i);
    }
    check_taint(i);
    check_block_and_call(i);
    return i + 1;
  }

  bool prev_member(std::size_t i) const {
    return i > 0 && toks_[i - 1].kind == Tok::Punct &&
           (toks_[i - 1].text == "." || toks_[i - 1].text == "->");
  }

  /// Split a parenthesized/braced argument list (toks_[open] is the
  /// opening punct) into depth-0 comma-separated argument spellings.
  std::vector<std::string> split_args(std::size_t open, std::size_t end) {
    std::vector<std::string> args;
    std::string cur;
    int d = 0;
    for (std::size_t m = open; m < end && m < toks_.size(); ++m) {
      const Token& a = toks_[m];
      if (a.kind == Tok::Punct) {
        if (a.text == "(" || a.text == "{" || a.text == "[") {
          if (d > 0) cur += a.text;
          ++d;
          continue;
        }
        if (a.text == ")" || a.text == "}" || a.text == "]") {
          --d;
          if (d == 0) break;
          cur += a.text;
          continue;
        }
        if (a.text == "," && d == 1) {
          if (!cur.empty()) args.push_back(cur);
          cur.clear();
          continue;
        }
      }
      if (d >= 1) cur += a.text;
    }
    if (!cur.empty()) args.push_back(cur);
    return args;
  }

  /// RAII lock-guard construction: record the acquisition (with the locks
  /// already held) and push every guarded mutex onto the held stack until
  /// the enclosing block closes.
  std::size_t handle_guard(std::size_t i) {
    const std::size_t n = toks_.size();
    std::size_t j = i + 1;
    if (tok_is(j, "<")) j = skip_balanced(toks_, j, "<", ">");
    if (j >= n || toks_[j].kind != Tok::Identifier) return i + 1;
    fn_.refs.insert(toks_[j].text);
    const std::size_t open = j + 1;
    if (!tok_is(open, "(") && !tok_is(open, "{")) return i + 1;
    const std::size_t end =
        tok_is(open, "(") ? skip_balanced(toks_, open, "(", ")")
                          : skip_balanced(toks_, open, "{", "}");
    for (const std::string& arg : split_args(open, end)) {
      LockSite ls;
      ls.mutex = qualify(arg);
      ls.line = toks_[i].line;
      ls.held = held_names();
      ls.allowed = ctx_.line_allowed(ls.line, "lock-order");
      held_.push_back({depth_, ls.mutex});
      fn_.locks.push_back(std::move(ls));
    }
    for (std::size_t k = open; k < end && k < n; ++k) {
      if (toks_[k].kind == Tok::Identifier && !is_keyword(toks_[k].text)) {
        fn_.refs.insert(toks_[k].text);
      }
    }
    return end;
  }

  void check_taint(std::size_t i) {
    const Token& t = toks_[i];
    if (ctx_.line_allowed(t.line, "no-nondeterminism-in-core") ||
        ctx_.line_allowed(t.line, "taint")) {
      return;
    }
    for (const TaintSpec& spec : kTaintSpecs) {
      if (t.text != spec.ident) continue;
      if (spec.needs_call && (!tok_is(i + 1, "(") || prev_member(i))) {
        continue;
      }
      fn_.taints.push_back({spec.token, t.line});
      return;
    }
  }

  void add_block(const std::string& what, std::size_t line,
                 bool wait_on_held = false) {
    BlockSite bs;
    bs.what = what;
    bs.line = line;
    bs.held = held_names();
    bs.allowed = ctx_.line_allowed(line, "blocking-under-lock");
    bs.wait_on_held = wait_on_held;
    fn_.blocks.push_back(std::move(bs));
  }

  void check_block_and_call(std::size_t i) {
    const Token& t = toks_[i];
    if (!tok_is(i + 1, "(")) {
      // Blocking by construction: a file stream object opened here.
      if (t.text == "ofstream" || t.text == "ifstream" ||
          t.text == "fstream") {
        add_block("stream-io", t.line);
      }
      return;
    }
    const bool member = prev_member(i);
    if (t.text == "wait" && member) {
      const std::size_t end = skip_balanced(toks_, i + 1, "(", ")");
      const std::vector<std::string> args = split_args(i + 1, end);
      bool on_held = false;
      if (!args.empty()) {
        const std::string arg = qualify(args.front());
        for (const Held& h : held_) {
          if (h.mutex == arg) on_held = true;
        }
      }
      add_block("CondVar::wait", t.line, on_held);
    } else if (t.text == "submit") {
      add_block("ThreadPool::submit", t.line);
    } else if (t.text == "parallel_for_chunks") {
      add_block("parallel_for_chunks", t.line);
    } else if (t.text == "fopen" || t.text == "getline") {
      add_block("stream-io", t.line);
    } else if ((t.text == "open" || t.text == "flush") && member) {
      add_block("stream-io", t.line);
    }

    CallSite cs;
    cs.name = t.text;
    cs.line = t.line;
    std::size_t q = i;
    std::vector<std::string> quals;
    while (q >= 2 && toks_[q - 1].kind == Tok::Punct &&
           toks_[q - 1].text == "::" &&
           toks_[q - 2].kind == Tok::Identifier) {
      quals.insert(quals.begin(), toks_[q - 2].text);
      q -= 2;
    }
    for (std::size_t k = 0; k < quals.size(); ++k) {
      if (k != 0) cs.qualifier += "::";
      cs.qualifier += quals[k];
    }
    cs.member = member || prev_member(q);
    cs.held = held_names();
    cs.allow_blocking = ctx_.line_allowed(t.line, "blocking-under-lock");
    cs.allow_taint = ctx_.line_allowed(t.line, "taint");
    cs.allow_lock = ctx_.line_allowed(t.line, "lock-order");
    fn_.calls.push_back(std::move(cs));
  }
};

}  // namespace

void index_symbols(const std::string& relative, const FileContext& ctx,
                   FileSummary& out) {
  (void)relative;
  SymbolIndexer(ctx, out).run();
}

}  // namespace analyze
