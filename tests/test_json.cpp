// The obs JSON layer: the number and string writers every emitter shares,
// and JsonReader, the one grammar behind JsonValue::parse and the
// checkpoint decoder.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace {

using hcsched::obs::JsonReader;
using hcsched::obs::JsonValue;

std::string number(double d) {
  std::string out;
  hcsched::obs::append_json_number(out, d);
  return out;
}

std::string string_literal(std::string_view s) {
  std::string out;
  hcsched::obs::append_json_string(out, s);
  return out;
}

TEST(JsonWriter, NumbersAreIntegersNullOrShortestRoundTrip) {
  EXPECT_EQ(number(0.0), "0");
  EXPECT_EQ(number(-0.0), "0");
  EXPECT_EQ(number(-42.0), "-42");
  EXPECT_EQ(number(999999999999999.0), "999999999999999");
  EXPECT_EQ(number(1e15), "1e+15");
  EXPECT_EQ(number(0.1), "0.1");
  EXPECT_EQ(number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(hcsched::obs::json_number(2.5), "2.5");
}

TEST(JsonWriter, StringsEscapeQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(string_literal(""), R"("")");
  EXPECT_EQ(string_literal("a\"b\\c/"), R"("a\"b\\c/")");
  EXPECT_EQ(string_literal("\b\f\n\r\t"), R"("\b\f\n\r\t")");
  EXPECT_EQ(string_literal(std::string("\x01\x1f\0z", 4)),
            R"("\u0001\u001f\u0000z")");
  EXPECT_EQ(string_literal("caf\xc3\xa9\x7f"), "\"caf\xc3\xa9\x7f\"");
  // dump() writes keys and values the same way.
  const JsonValue v(JsonValue::Object{{"k\"", JsonValue("\n")}});
  EXPECT_EQ(v.dump(), R"({"k\"":"\n"})");
}

TEST(JsonReader, PullsValuesKeysAsViewsUnlessEscaped) {
  const std::string text =
      R"( {"plain": [1, -2.5e3, true, null], "escA\n": "x\"y", )"
      R"("skip": {"a": [{}, []], "b": "é"}} )";
  JsonReader reader(text);
  std::string scratch;
  reader.begin_object();

  auto key = reader.next_key(scratch);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, "plain");
  EXPECT_TRUE(key->data() >= text.data() &&
              key->data() < text.data() + text.size());
  reader.begin_array();
  ASSERT_TRUE(reader.next_item());
  EXPECT_EQ(reader.read_number(), 1.0);
  ASSERT_TRUE(reader.next_item());
  EXPECT_EQ(reader.read_number(), -2500.0);
  ASSERT_TRUE(reader.next_item());
  EXPECT_EQ(reader.peek(), JsonReader::Kind::kBool);
  EXPECT_TRUE(reader.read_bool());
  ASSERT_TRUE(reader.next_item());
  EXPECT_EQ(reader.peek(), JsonReader::Kind::kNull);
  reader.read_null();
  EXPECT_FALSE(reader.next_item());

  key = reader.next_key(scratch);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, "escA\n");
  EXPECT_EQ(key->data(), scratch.data());
  EXPECT_EQ(reader.read_string(), "x\"y");

  key = reader.next_key(scratch);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, "skip");
  reader.skip();
  EXPECT_FALSE(reader.next_key(scratch).has_value());
  reader.finish();
}

TEST(JsonReader, DecodesEveryEscape) {
  const std::string text = R"("a\"\\\/\b\f\n\r\tz\u0041\u00e9\u20AC")";
  JsonReader reader(text);
  EXPECT_EQ(reader.read_string(), "a\"\\/\b\f\n\r\tzA\xc3\xa9\xe2\x82\xac");
  reader.finish();
}

TEST(JsonReader, RejectsWhatTheGrammarForbids) {
  for (const std::string_view bad :
       {"", "[1,]", R"({"a":1,})", "[1 2]", R"({"a" 1})", R"({1:2})",
        "tru", "nul", "+1", "1e999", "NaN", "[", R"("abc)", R"("\x")",
        R"("\ud800")", R"("\u12")", "{} x", "01x"}) {
    EXPECT_THROW(JsonValue::parse(bad), std::invalid_argument) << bad;
    const auto skip_document = [bad] {
      JsonReader reader(bad);
      reader.skip();
      reader.finish();
    };
    EXPECT_THROW(skip_document(), std::invalid_argument) << bad;
  }
}

TEST(JsonReader, NestingPastTheCapIsAParseErrorNotACrash) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(JsonValue::parse(nested(JsonReader::kMaxDepth)));
  EXPECT_THROW(JsonValue::parse(nested(JsonReader::kMaxDepth + 1)),
               std::invalid_argument);
  // 3 MB of '[' would overflow the stack of a recursive descent without
  // the cap; the reader gives up after kMaxDepth levels.
  const std::string hostile = R"({"v":1,"x":)" + std::string(3'000'000, '[');
  EXPECT_THROW(JsonValue::parse(hostile), std::invalid_argument);
  JsonReader reader(hostile);
  EXPECT_THROW(reader.skip(), std::invalid_argument);
}

TEST(JsonValue, ParseOfDumpIsTheSameValue) {
  const JsonValue value(JsonValue::Object{
      {"s", JsonValue("tab\there \"q\" \x01")},
      {"n", JsonValue(-0.125)},
      {"big", JsonValue(1e300)},
      {"a", JsonValue(JsonValue::Array{JsonValue(nullptr), JsonValue(false),
                                       JsonValue(JsonValue::Object{})})},
      {"s", JsonValue("duplicate keys are kept in order")}});
  EXPECT_EQ(JsonValue::parse(value.dump()), value);
  EXPECT_EQ(JsonValue::parse(value.dump(2)), value);
  EXPECT_EQ(JsonValue::parse(value.dump()).at("s").as_string(),
            "tab\there \"q\" \x01");
}

}  // namespace
