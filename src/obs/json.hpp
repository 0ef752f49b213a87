// Minimal JSON document model for the observability subsystem.
//
// Trace sinks and run reports need a dependency-free way to build, emit and
// re-read JSON (the container image has no third-party JSON library). The
// model is deliberately small: a JsonValue is null, bool, number (double),
// string, array, or object; objects preserve insertion order so emitted
// documents are deterministic and diffable. dump() writes compact or
// indented text; parse() builds a tree on JsonReader, the strict pull
// reader that is the repository's one JSON grammar. Codecs with a fixed
// schema (the sweep checkpoint) write with append_json_number /
// append_json_string and read with JsonReader directly, building no tree.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace hcsched::obs {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered object (duplicate keys are not rejected; at() finds
  /// the first occurrence).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() noexcept : value_(nullptr) {}
  JsonValue(std::nullptr_t) noexcept : value_(nullptr) {}
  JsonValue(bool b) noexcept : value_(b) {}
  JsonValue(double d) noexcept : value_(d) {}
  JsonValue(int i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(long i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(long long i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(unsigned i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(unsigned long i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(unsigned long long i) noexcept
      : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string_view s) : value_(std::string(s)) {}
  JsonValue(std::string s) noexcept : value_(std::move(s)) {}
  JsonValue(Array a) noexcept : value_(std::move(a)) {}
  JsonValue(Object o) noexcept : value_(std::move(o)) {}

  bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  bool is_array() const noexcept {
    return std::holds_alternative<Array>(value_);
  }
  bool is_object() const noexcept {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; throw std::bad_variant_access on kind mismatch.
  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  /// First member named `key`, or nullptr (requires an object).
  const JsonValue* find(std::string_view key) const;
  /// Like find(), but throws std::out_of_range when absent.
  const JsonValue& at(std::string_view key) const;

  /// Serializes the value. indent < 0 -> compact single line (the JSONL
  /// form); indent >= 0 -> pretty-printed with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Strict parse of a complete JSON document (throws std::invalid_argument
  /// on syntax errors, nesting deeper than JsonReader::kMaxDepth or trailing
  /// garbage).
  static JsonValue parse(std::string_view text);

  bool operator==(const JsonValue&) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Appends `d` the way dump() writes a number: `null` when it is not
/// finite (JSON has no Inf/NaN), an integer without a trailing ".0" when it
/// is integral and below 1e15 in magnitude, else the shortest text that
/// round-trips.
void append_json_number(std::string& out, double d);

/// Appends `s` as a quoted JSON string literal: `"` and `\` are escaped,
/// \b \f \n \r \t get their short escapes, other bytes below 0x20 become
/// \u00XX, everything else (UTF-8 included) is copied.
void append_json_string(std::string& out, std::string_view s);

/// append_json_number into a fresh string.
std::string json_number(double d);

/// Pull reader over one JSON text, the grammar JsonValue::parse builds on.
/// Strict: no comments, no trailing commas, no NaN/Inf, `\u` escapes only
/// for BMP code points outside the surrogate range; numbers are the bytes
/// `-0123456789.eE+` accepted by std::from_chars. Containers nest at most
/// kMaxDepth deep, so hostile input fails instead of exhausting the stack.
/// Every error throws std::invalid_argument naming the offset.
///
/// Each read_* / begin_* call consumes one value (skipping whitespace
/// before it); the caller walks containers with
///   r.begin_array();  while (r.next_item()) { consume one value }
///   r.begin_object(); while (auto key = r.next_key(s)) { consume one value }
/// and calls finish() once the document's value is consumed.
class JsonReader {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  static constexpr int kMaxDepth = 64;

  explicit JsonReader(std::string_view text) noexcept : text_(text) {}

  /// Kind of the next value, judged by its first byte (anything that is not
  /// a string, container or literal reads as a number).
  Kind peek();

  void read_null();
  bool read_bool();
  double read_number();
  /// The next string, unescaped: a view into the text when it has no
  /// escapes, else into `scratch` (valid until `scratch` changes).
  std::string_view read_string(std::string& scratch);
  std::string read_string();

  void begin_array();
  /// True when another element follows; false once the ']' is consumed.
  bool next_item();
  void begin_object();
  /// The next member's key with its ':' consumed (a view as read_string
  /// gives), or nullopt once the '}' is consumed.
  std::optional<std::string_view> next_key(std::string& scratch);

  /// Consumes one value of any kind, checking its syntax.
  void skip();
  /// Fails unless only whitespace follows.
  void finish();

 private:
  [[noreturn]] void fail(std::string_view what) const;
  void skip_ws();
  /// Skips whitespace; the next byte (fails at the end of the text).
  char next_char();
  void expect(char c);
  void expect_literal(std::string_view literal);
  void enter();
  /// Shared tail of next_item / next_key: false once `close` is consumed.
  bool next_member(char close);
  /// Decodes the escape just past a backslash onto `out`.
  void append_escape(std::string& out);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool first_ = false;  // just inside a '[' or '{': no ',' before a member
};

}  // namespace hcsched::obs
