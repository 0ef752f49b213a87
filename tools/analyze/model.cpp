#include "analyze/model.hpp"

#include <algorithm>
#include <array>

namespace analyze {
namespace {

bool is_word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// Keywords that can never be a declared name, and that block the
// "identifier before `(` / `=` is a declaration" classification when they
// appear as the *preceding* token (e.g. `return foo(x)` is a call).
const std::set<std::string>& keyword_set() {
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
  return kw;
}

// Keywords that *can* legitimately precede a declared name's type (so a
// preceding one of these still classifies `name(` as a declaration).
bool is_type_keyword(const std::string& t) {
  static const std::set<std::string> types = {
      "bool", "char", "double", "float", "int", "long", "short", "signed",
      "unsigned", "void", "auto", "size_t",
  };
  return types.count(t) != 0;
}

std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::string line;
  for (char c : content) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(std::move(line));
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (!line.empty() || content.empty()) lines.push_back(std::move(line));
  return lines;
}

/// Blank [start_line,start_col) .. (end_line,end_col) in `lines`
/// (1-based positions, end exclusive), optionally keeping the first and
/// last character (string delimiters) visible.
void blank_span(std::vector<std::string>& lines, const Token& t,
                bool keep_delims) {
  for (std::size_t ln = t.line; ln <= t.end_line && ln <= lines.size();
       ++ln) {
    std::string& s = lines[ln - 1];
    const std::size_t from = (ln == t.line) ? t.col - 1 : 0;
    const std::size_t to =
        (ln == t.end_line) ? std::min(t.end_col - 1, s.size()) : s.size();
    for (std::size_t i = from; i < to && i < s.size(); ++i) s[i] = ' ';
  }
  if (keep_delims) {
    if (t.line <= lines.size() && t.col - 1 < lines[t.line - 1].size()) {
      lines[t.line - 1][t.col - 1] = '"';
    }
    if (t.end_line <= lines.size() && t.end_col >= 2 &&
        t.end_col - 2 < lines[t.end_line - 1].size()) {
      lines[t.end_line - 1][t.end_col - 2] = '"';
    }
  }
}

/// Inner text of a string/char literal token (prefix and delimiters
/// stripped; raw-string delimiters handled; escapes left as written).
std::string literal_value(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() && text[i] != '"' && text[i] != '\'' &&
         text[i] != 'R') {
    ++i;  // encoding prefix
  }
  if (i < text.size() && text[i] == 'R') {
    const std::size_t quote = text.find('"', i);
    const std::size_t open = text.find('(', quote);
    if (quote == std::string::npos || open == std::string::npos) return {};
    const std::string delim = text.substr(quote + 1, open - quote - 1);
    const std::string closer = ")" + delim + "\"";
    const std::size_t close = text.rfind(closer);
    if (close == std::string::npos || close < open + 1) return {};
    return text.substr(open + 1, close - open - 1);
  }
  if (i >= text.size()) return {};
  const char q = text[i];
  std::size_t end = text.size();
  if (end >= 2 && text[end - 1] == q) --end;
  return text.substr(i + 1, end - i - 1);
}

void add_words(const std::string& text, std::set<std::string>& out) {
  std::string word;
  for (char c : text) {
    if (is_word_char(c)) {
      word += c;
    } else if (!word.empty()) {
      out.insert(word);
      word.clear();
    }
  }
  if (!word.empty()) out.insert(word);
}

/// Extract every `lint:allow(token)` / `hcsched-lint: allow(rule)` marker
/// from a comment's text.
void extract_allows(const Token& comment, FileContext& ctx,
                    FileSummary& out) {
  const std::string& text = comment.text;
  constexpr std::string_view kLine = "lint:allow(";
  constexpr std::string_view kFile = "hcsched-lint: allow(";
  for (std::size_t pos = text.find(kFile); pos != std::string::npos;
       pos = text.find(kFile, pos + 1)) {
    const std::size_t close = text.find(')', pos);
    if (close == std::string::npos) continue;
    out.file_allows.insert(
        text.substr(pos + kFile.size(), close - pos - kFile.size()));
  }
  for (std::size_t pos = text.find(kLine); pos != std::string::npos;
       pos = text.find(kLine, pos + 1)) {
    // Skip the tail of "hcsched-lint: allow(" (already handled above).
    if (pos >= 8 && text.compare(pos - 8, 8, "hcsched-") == 0) continue;
    const std::size_t close = text.find(')', pos);
    if (close == std::string::npos) continue;
    const std::string token =
        text.substr(pos + kLine.size(), close - pos - kLine.size());
    for (std::size_t ln = comment.line; ln <= comment.end_line; ++ln) {
      ctx.line_allows[ln].insert(token);
    }
  }
}

bool tok_is(const Token& t, std::string_view text) {
  return t.text == text;
}

std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i,
                          std::string_view open, std::string_view close) {
  // toks[i] is `open`; returns index one past the matching `close`
  // (or toks.size() when unbalanced).
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].kind == Tok::Punct && toks[i].text == open) ++depth;
    if (toks[i].kind == Tok::Punct && toks[i].text == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return toks.size();
}

/// Parse the postfix chain of a range-for range expression.
RangeForChain parse_chain(const std::vector<Token>& expr, std::size_t line) {
  RangeForChain chain;
  chain.line = line;
  std::size_t i = 0;
  auto bail = [&chain]() {
    chain.complex = true;
    return chain;
  };
  if (expr.empty() || expr[0].kind != Tok::Identifier) return bail();
  // Base: qualified-id, possibly a call.
  std::string base = expr[i++].text;
  while (i + 1 < expr.size() && tok_is(expr[i], "::") &&
         expr[i + 1].kind == Tok::Identifier) {
    base = expr[i + 1].text;
    i += 2;
  }
  if (i < expr.size() && tok_is(expr[i], "(")) {
    chain.steps.push_back({'f', base});
    i = skip_balanced(expr, i, "(", ")");
  } else {
    chain.steps.push_back({'b', base});
  }
  while (i < expr.size()) {
    if (tok_is(expr[i], ".") || tok_is(expr[i], "->")) {
      ++i;
      if (i >= expr.size() || expr[i].kind != Tok::Identifier) return bail();
      const std::string name = expr[i++].text;
      if (i < expr.size() && tok_is(expr[i], "<")) {
        // template member: skip the argument list, then expect a call
        std::size_t j = skip_balanced(expr, i, "<", ">");
        if (j >= expr.size() || !tok_is(expr[j], "(")) return bail();
        i = j;
      }
      if (i < expr.size() && tok_is(expr[i], "(")) {
        chain.steps.push_back({'c', name});
        i = skip_balanced(expr, i, "(", ")");
      } else {
        chain.steps.push_back({'m', name});
      }
    } else if (tok_is(expr[i], "[")) {
      chain.steps.push_back({'i', ""});
      i = skip_balanced(expr, i, "[", "]");
    } else {
      return bail();
    }
  }
  return chain;
}

void collect_range_fors(const FileContext& ctx, FileSummary& out) {
  const std::vector<Token>& toks = ctx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::Identifier || toks[i].text != "for") continue;
    if (!tok_is(toks[i + 1], "(")) continue;
    const std::size_t end = skip_balanced(toks, i + 1, "(", ")");
    // Find the range-for ':' at paren depth 1; a ';' at depth 1 means a
    // classic for statement.
    std::size_t colon = 0;
    int depth = 0;
    bool classic = false;
    for (std::size_t j = i + 1; j < end; ++j) {
      if (toks[j].kind != Tok::Punct) continue;
      if (toks[j].text == "(" || toks[j].text == "[" ||
          toks[j].text == "{") {
        ++depth;
      } else if (toks[j].text == ")" || toks[j].text == "]" ||
                 toks[j].text == "}") {
        --depth;
      } else if (depth == 1 && toks[j].text == ";") {
        classic = true;
        break;
      } else if (depth == 1 && toks[j].text == ":" && colon == 0) {
        colon = j;
      }
    }
    if (classic || colon == 0 || end == toks.size()) continue;
    std::vector<Token> expr(toks.begin() + static_cast<std::ptrdiff_t>(colon) + 1,
                            toks.begin() + static_cast<std::ptrdiff_t>(end) - 1);
    RangeForChain chain = parse_chain(expr, toks[i].line);
    chain.allowed = ctx.line_allowed(toks[i].line, "range-for-temporary");
    out.range_fors.push_back(std::move(chain));
  }
}

void collect_declared_and_rets(const FileContext& ctx, FileSummary& out) {
  const std::vector<Token>& toks = ctx.tokens;
  const std::set<std::string>& kw = keyword_set();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::Directive && t.text == "#define") {
      if (i + 1 < toks.size() && toks[i + 1].kind == Tok::Identifier) {
        out.declared.insert(toks[i + 1].text);
      }
      continue;
    }
    if (t.kind != Tok::Identifier) continue;
    if (t.text == "class" || t.text == "struct" || t.text == "enum" ||
        t.text == "union") {
      std::size_t j = i + 1;
      if (j < toks.size() && (tok_is(toks[j], "class") ||
                              tok_is(toks[j], "struct"))) {
        ++j;  // enum class
      }
      while (j + 1 < toks.size() && tok_is(toks[j], "[") &&
             tok_is(toks[j + 1], "[")) {
        // skip [[attributes]]
        j = skip_balanced(toks, j, "[", "]");
        if (j < toks.size() && tok_is(toks[j], "]")) ++j;
      }
      if (j < toks.size() && toks[j].kind == Tok::Identifier &&
          !kw.count(toks[j].text)) {
        out.declared.insert(toks[j].text);
      }
      // Enumerators: names directly after '{' or ',' inside an enum body.
      if (t.text == "enum") {
        while (j < toks.size() && !tok_is(toks[j], "{") &&
               !tok_is(toks[j], ";")) {
          ++j;
        }
        if (j < toks.size() && tok_is(toks[j], "{")) {
          bool expect_name = true;
          int depth = 0;
          for (; j < toks.size(); ++j) {
            if (tok_is(toks[j], "{")) ++depth;
            if (tok_is(toks[j], "}") && --depth == 0) break;
            if (toks[j].kind == Tok::Identifier && expect_name &&
                depth == 1 && !kw.count(toks[j].text)) {
              out.declared.insert(toks[j].text);
              expect_name = false;
            }
            if (depth == 1 && tok_is(toks[j], ",")) expect_name = true;
          }
        }
      }
      continue;
    }
    if (t.text == "using" && i + 2 < toks.size() &&
        toks[i + 1].kind == Tok::Identifier && tok_is(toks[i + 2], "=")) {
      out.declared.insert(toks[i + 1].text);
      continue;
    }
    // Using-declaration `using a::b::Name;` re-exports Name from this
    // header (`using namespace` re-exports nothing nameable).
    if (t.text == "using" && i + 1 < toks.size() &&
        toks[i + 1].kind == Tok::Identifier &&
        toks[i + 1].text != "namespace") {
      std::size_t j = i + 1;
      std::size_t last_ident = j;
      while (j + 2 < toks.size() && tok_is(toks[j + 1], "::") &&
             toks[j + 2].kind == Tok::Identifier) {
        last_ident = j + 2;
        j += 2;
      }
      if (last_ident != i + 1 && j + 1 < toks.size() &&
          tok_is(toks[j + 1], ";")) {
        out.declared.insert(toks[last_ident].text);
      }
      continue;
    }
    if (t.text == "typedef") {
      std::size_t j = i + 1;
      std::size_t last_ident = 0;
      for (; j < toks.size() && !tok_is(toks[j], ";"); ++j) {
        if (toks[j].kind == Tok::Identifier) last_ident = j;
      }
      if (last_ident != 0) out.declared.insert(toks[last_ident].text);
      continue;
    }
    // Function / variable declaration: `<type-ish> name (` or
    // `<type-ish> name =`. Calls are excluded because their name is
    // preceded by punctuation or a statement keyword, not a type token.
    if (kw.count(t.text)) continue;
    if (i == 0 || i + 1 >= toks.size()) continue;
    const bool opens_call = tok_is(toks[i + 1], "(");
    const bool assigns = tok_is(toks[i + 1], "=");
    if (!opens_call && !assigns) continue;
    const Token& prev = toks[i - 1];
    const bool type_prev =
        (prev.kind == Tok::Identifier &&
         (!kw.count(prev.text) || is_type_keyword(prev.text))) ||
        (prev.kind == Tok::Punct &&
         (prev.text == ">" || prev.text == "&" || prev.text == "*" ||
          prev.text == "&&"));
    if (!type_prev) continue;
    out.declared.insert(t.text);
    if (!opens_call) continue;
    // Return-kind for the range-for-temporary rule: any '&' in the token
    // run that spells the return type means the callable yields a
    // reference.
    bool ref = false;
    for (std::size_t k = i; k-- > 0;) {
      const Token& b = toks[k];
      const bool type_token =
          (b.kind == Tok::Identifier &&
           (!kw.count(b.text) || is_type_keyword(b.text) ||
            b.text == "const" || b.text == "constexpr" ||
            b.text == "inline" || b.text == "static" ||
            b.text == "virtual" || b.text == "typename" ||
            b.text == "mutable" || b.text == "explicit")) ||
          (b.kind == Tok::Punct &&
           (b.text == "::" || b.text == "<" || b.text == ">" ||
            b.text == "&" || b.text == "*" || b.text == "&&" ||
            b.text == ","));
      if (!type_token) break;
      if (b.text == "&" || b.text == "&&") ref = true;
    }
    out.ret_kinds[t.text] |= ref ? kRetRef : kRetValue;
  }
}

void collect_metric_sites(const FileContext& ctx, FileSummary& out) {
  const std::vector<Token>& toks = ctx.tokens;
  static const std::set<std::string> kMacros = {"HCSCHED_METRIC_GAUGE_SET",
                                                "HCSCHED_METRIC_OBSERVE"};
  static const std::set<std::string> kAccessors = {"gauge", "histogram"};
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Tok::Identifier) continue;
    bool site = false;
    if (kMacros.count(toks[i].text)) {
      site = true;
    } else if (kAccessors.count(toks[i].text) && i >= 2 &&
               tok_is(toks[i - 1], "::") &&
               toks[i - 2].kind == Tok::Identifier &&
               toks[i - 2].text == "metrics") {
      site = true;
    }
    if (!site || !tok_is(toks[i + 1], "(")) continue;
    if (toks[i + 2].kind != Tok::String) continue;  // non-literal name
    const std::string name = literal_value(toks[i + 2].text);
    if (name.empty()) continue;
    out.metric_sites.push_back(MetricSite{
        name, toks[i].line,
        ctx.line_allowed(toks[i].line, "metric-docs")});
  }
}

}  // namespace

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

FileSummary analyze_file(const std::string& relative,
                         const std::string& content) {
  FileSummary out;
  out.relative = relative;

  FileContext ctx;
  std::vector<Token> all = lex(content);
  ctx.code_lines = split_lines(content);
  for (Token& t : all) {
    if (t.kind == Tok::Comment) {
      extract_allows(t, ctx, out);
      blank_span(ctx.code_lines, t, /*keep_delims=*/false);
      ctx.comments.push_back(std::move(t));
    } else {
      if (t.kind == Tok::String || t.kind == Tok::Char) {
        ctx.strings_by_line[t.line].push_back(literal_value(t.text));
        blank_span(ctx.code_lines, t, /*keep_delims=*/true);
      }
      ctx.tokens.push_back(std::move(t));
    }
  }

  // Includes (with the allow escapes active on their line).
  for (std::size_t i = 0; i + 1 < ctx.tokens.size(); ++i) {
    if (ctx.tokens[i].kind != Tok::Directive ||
        ctx.tokens[i].text != "#include") {
      continue;
    }
    if (ctx.tokens[i + 1].kind != Tok::HeaderName) continue;
    const std::string& raw = ctx.tokens[i + 1].text;
    if (raw.size() < 2) continue;
    IncludeInfo inc;
    inc.angle = raw.front() == '<';
    inc.path = raw.substr(1, raw.size() - 2);
    inc.line = ctx.tokens[i].line;
    for (std::size_t ln : {inc.line, inc.line > 1 ? inc.line - 1 : inc.line}) {
      auto it = ctx.line_allows.find(ln);
      if (it != ctx.line_allows.end()) {
        inc.allows.insert(it->second.begin(), it->second.end());
      }
    }
    out.includes.push_back(std::move(inc));
  }

  for (const Token& t : ctx.tokens) {
    if (t.kind == Tok::Identifier) out.idents.insert(t.text);
  }

  collect_declared_and_rets(ctx, out);
  collect_metric_sites(ctx, out);
  collect_range_fors(ctx, out);
  index_symbols(relative, ctx, out);

  // Full-text word set, kept only where a cross-file rule consumes it
  // (the fastpath-differential "any mention counts" contract).
  const std::size_t slash = relative.rfind('/');
  const std::string fname =
      slash == std::string::npos ? relative : relative.substr(slash + 1);
  if (relative.rfind("tests/", 0) == 0 &&
      fname.rfind("test_fastpath", 0) == 0) {
    out.mentions = out.idents;
    for (const Token& c : ctx.comments) add_words(c.text, out.mentions);
    for (const Token& t : ctx.tokens) {
      if (t.kind == Tok::String || t.kind == Tok::HeaderName) {
        add_words(t.text, out.mentions);
      }
    }
  }

  run_local_rules(relative, ctx, out);
  return out;
}

}  // namespace analyze
