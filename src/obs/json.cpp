#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace hcsched::obs {

namespace {

void dump_value(const JsonValue& v, int indent, int depth, std::string& out);

void append_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

void dump_array(const JsonValue::Array& a, int indent, int depth,
                std::string& out) {
  if (a.empty()) {
    out += "[]";
    return;
  }
  out.push_back('[');
  bool first = true;
  for (const JsonValue& v : a) {
    if (!first) out.push_back(',');
    first = false;
    append_indent(out, indent, depth + 1);
    dump_value(v, indent, depth + 1, out);
  }
  append_indent(out, indent, depth);
  out.push_back(']');
}

void dump_object(const JsonValue::Object& o, int indent, int depth,
                 std::string& out) {
  if (o.empty()) {
    out += "{}";
    return;
  }
  out.push_back('{');
  bool first = true;
  for (const auto& [key, v] : o) {
    if (!first) out.push_back(',');
    first = false;
    append_indent(out, indent, depth + 1);
    append_json_string(out, key);
    out += indent < 0 ? ":" : ": ";
    dump_value(v, indent, depth + 1, out);
  }
  append_indent(out, indent, depth);
  out.push_back('}');
}

void dump_value(const JsonValue& v, int indent, int depth, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    append_json_number(out, v.as_number());
  } else if (v.is_string()) {
    append_json_string(out, v.as_string());
  } else if (v.is_array()) {
    dump_array(v.as_array(), indent, depth, out);
  } else {
    dump_object(v.as_object(), indent, depth, out);
  }
}

JsonValue read_value(JsonReader& reader) {
  switch (reader.peek()) {
    case JsonReader::Kind::kObject: {
      JsonValue::Object members;
      std::string scratch;
      reader.begin_object();
      while (const auto key = reader.next_key(scratch)) {
        std::string name(*key);
        members.emplace_back(std::move(name), read_value(reader));
      }
      return JsonValue(std::move(members));
    }
    case JsonReader::Kind::kArray: {
      JsonValue::Array items;
      reader.begin_array();
      while (reader.next_item()) items.push_back(read_value(reader));
      return JsonValue(std::move(items));
    }
    case JsonReader::Kind::kString:
      return JsonValue(reader.read_string());
    case JsonReader::Kind::kBool:
      return JsonValue(reader.read_bool());
    case JsonReader::Kind::kNull:
      reader.read_null();
      return JsonValue(nullptr);
    case JsonReader::Kind::kNumber:
      break;
  }
  return JsonValue(reader.read_number());
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) {
    throw std::out_of_range("JsonValue::at: no member '" + std::string(key) +
                            "'");
  }
  return *v;
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  JsonReader reader(text);
  JsonValue value = read_value(reader);
  reader.finish();
  return value;
}

void append_json_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] =
      d == std::floor(d) && std::abs(d) < 1e15
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d))
          : std::to_chars(buf, buf + sizeof buf, d);
  if (ec != std::errc{}) {
    out.push_back('0');
    return;
  }
  out.append(buf, ptr);
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t plain = 0;  // start of the run not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    out.push_back('\\');
    switch (c) {
      case '"':
      case '\\':
        out.push_back(static_cast<char>(c));
        break;
      case '\b':
        out.push_back('b');
        break;
      case '\f':
        out.push_back('f');
        break;
      case '\n':
        out.push_back('n');
        break;
      case '\r':
        out.push_back('r');
        break;
      case '\t':
        out.push_back('t');
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        out += "u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
  out.push_back('"');
}

std::string json_number(double d) {
  std::string out;
  append_json_number(out, d);
  return out;
}

// --- JsonReader ------------------------------------------------------------

void JsonReader::fail(std::string_view what) const {
  throw std::invalid_argument("JSON: " + std::string(what) + " at offset " +
                              std::to_string(pos_));
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::next_char() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  if (next_char() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

void JsonReader::expect_literal(std::string_view literal) {
  next_char();
  if (text_.substr(pos_, literal.size()) != literal) fail("bad literal");
  pos_ += literal.size();
}

JsonReader::Kind JsonReader::peek() {
  switch (next_char()) {
    case '{':
      return Kind::kObject;
    case '[':
      return Kind::kArray;
    case '"':
      return Kind::kString;
    case 't':
    case 'f':
      return Kind::kBool;
    case 'n':
      return Kind::kNull;
    default:
      return Kind::kNumber;
  }
}

void JsonReader::read_null() { expect_literal("null"); }

bool JsonReader::read_bool() {
  if (next_char() == 't') {
    expect_literal("true");
    return true;
  }
  expect_literal("false");
  return false;
}

double JsonReader::read_number() {
  next_char();
  const std::size_t start = pos_;
  if (text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size() &&
         ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
          text_[pos_] == '-')) {
    ++pos_;
  }
  if (pos_ == start) fail("expected a value");
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text_.data() + start, text_.data() + pos_, value);
  if (ec != std::errc{} || ptr != text_.data() + pos_) fail("bad number");
  return value;
}

std::string_view JsonReader::read_string(std::string& scratch) {
  expect('"');
  bool escaped = false;  // whether the value lives in `scratch`
  for (std::size_t start = pos_;; start = pos_) {
    std::size_t stop = pos_;
    while (stop < text_.size() && text_[stop] != '"' && text_[stop] != '\\') {
      ++stop;
    }
    if (stop == text_.size()) {
      pos_ = stop;
      fail("unterminated string");
    }
    pos_ = stop + 1;
    const std::string_view run = text_.substr(start, stop - start);
    if (text_[stop] == '"' && !escaped) return run;
    if (!escaped) scratch.clear();
    escaped = true;
    scratch += run;
    if (text_[stop] == '"') return scratch;
    append_escape(scratch);
  }
}

std::string JsonReader::read_string() {
  std::string out;
  const std::string_view s = read_string(out);
  if (s.data() != out.data()) out.assign(s);
  return out;
}

void JsonReader::append_escape(std::string& out) {
  if (pos_ >= text_.size()) fail("unterminated escape");
  const char esc = text_[pos_++];
  switch (esc) {
    case '"':
    case '\\':
    case '/':
      out.push_back(esc);
      return;
    case 'b':
      out.push_back('\b');
      return;
    case 'f':
      out.push_back('\f');
      return;
    case 'n':
      out.push_back('\n');
      return;
    case 'r':
      out.push_back('\r');
      return;
    case 't':
      out.push_back('\t');
      return;
    case 'u':
      break;
    default:
      fail("unknown escape");
  }
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = text_[pos_++];
    code <<= 4;
    if (h >= '0' && h <= '9') {
      code |= static_cast<unsigned>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      code |= static_cast<unsigned>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      code |= static_cast<unsigned>(h - 'A' + 10);
    } else {
      fail("bad hex digit in \\u escape");
    }
  }
  // Encode the BMP code point as UTF-8 (surrogate pairs are not produced by
  // this repo's emitter and are rejected).
  if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape");
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

void JsonReader::enter() {
  ++pos_;
  if (++depth_ > kMaxDepth) fail("nesting too deep");
  first_ = true;
}

void JsonReader::begin_array() {
  if (next_char() != '[') fail("expected '['");
  enter();
}

void JsonReader::begin_object() {
  if (next_char() != '{') fail("expected '{'");
  enter();
}

bool JsonReader::next_member(char close) {
  const char c = next_char();
  if (first_) {
    first_ = false;
    if (c != close) return true;
  } else if (c == ',') {
    ++pos_;
    return true;
  } else if (c != close) {
    fail(std::string("expected ',' or '") + close + "'");
  }
  ++pos_;
  --depth_;
  return false;
}

bool JsonReader::next_item() { return next_member(']'); }

std::optional<std::string_view> JsonReader::next_key(std::string& scratch) {
  if (!next_member('}')) return std::nullopt;
  const std::string_view key = read_string(scratch);
  expect(':');
  return key;
}

void JsonReader::skip() {
  std::string scratch;
  switch (peek()) {
    case Kind::kObject:
      begin_object();
      while (next_key(scratch)) skip();
      return;
    case Kind::kArray:
      begin_array();
      while (next_item()) skip();
      return;
    case Kind::kString:
      read_string(scratch);
      return;
    case Kind::kBool:
      read_bool();
      return;
    case Kind::kNull:
      read_null();
      return;
    case Kind::kNumber:
      read_number();
      return;
  }
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

}  // namespace hcsched::obs
