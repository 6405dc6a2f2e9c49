// Unit tests for the shared JSON reader/writer (src/util/json): every
// rejection is one "line L, col C: ..." message, and the canonical
// writer's output reads back to the same document.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/json.hpp"

namespace drift::util {
namespace {

/// Parses text that must be rejected and returns the error.
std::string reject(const std::string& text) {
  std::string error;
  EXPECT_FALSE(parse_json(text, error).has_value()) << text;
  return error;
}

JsonValue accept(const std::string& text) {
  std::string error;
  auto doc = parse_json(text, error);
  EXPECT_TRUE(doc.has_value()) << text << ": " << error;
  EXPECT_TRUE(error.empty());
  return doc ? *doc : JsonValue();
}

TEST(Json, ParsesEveryKind) {
  const JsonValue doc = accept(
      R"({"n": null, "t": true, "f": false, "i": -42, "d": 2.5e-3,
          "s": "a\"b\\c\/d\n", "a": [1, [], {}], "o": {"k": "v"}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.get("n")->is_null());
  EXPECT_TRUE(doc.get("t")->as_bool());
  EXPECT_FALSE(doc.get("f")->as_bool());
  EXPECT_EQ(doc.get("i")->kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(doc.get("i")->as_int(), -42);
  EXPECT_EQ(doc.get("d")->kind(), JsonValue::Kind::kDouble);
  EXPECT_EQ(doc.get("d")->as_double(), 2.5e-3);
  EXPECT_EQ(doc.get("s")->as_string(), "a\"b\\c/d\n");
  EXPECT_EQ(doc.get("a")->as_array().size(), 3u);
  EXPECT_EQ(doc.get_path({"o", "k"})->as_string(), "v");
  EXPECT_EQ(doc.get_path({"o", "missing"}), nullptr);
}

TEST(Json, CanonicalFormReadsBack) {
  const JsonValue doc =
      accept(R"({"b": [1, 2.5, "x\u0001"], "a": {"z": null, "y": true}})");
  const std::string text = write_canonical(doc);
  EXPECT_EQ(text,
            "{\n"
            "  \"a\": {\n"
            "    \"y\": true,\n"
            "    \"z\": null\n"
            "  },\n"
            "  \"b\": [\n"
            "    1,\n"
            "    2.5,\n"
            "    \"x\\u0001\"\n"
            "  ]\n"
            "}\n");
  EXPECT_TRUE(accept(text) == doc);
}

TEST(Json, DuplicateKeyIsALocatedError) {
  EXPECT_EQ(reject("{\"a\": 1,\n  \"a\": 2}"),
            "line 2, col 3: duplicate key 'a'");
  // Keys are scoped to their own object.
  accept(R"({"a": {"a": 1}, "b": {"a": 2}})");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(accept(R"("\u0041\u00e9\u20AC")").as_string(),
            "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(reject(R"("\ud83d")"),
            "line 1, col 8: surrogate \\u escape unsupported");
  EXPECT_EQ(reject(R"("\u12g4")"),
            "line 1, col 7: bad hex digit in \\u escape");
  EXPECT_EQ(reject(R"("\u12)"), "line 1, col 4: truncated \\u escape");
  EXPECT_EQ(reject(R"("\x")"), "line 1, col 4: unknown escape");
}

TEST(Json, Int64OverflowAndNegativeZeroFallBackToDouble) {
  const JsonValue max = accept("9223372036854775807");
  EXPECT_EQ(max.kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(max.as_int(), std::numeric_limits<std::int64_t>::max());
  const JsonValue min = accept("-9223372036854775808");
  EXPECT_EQ(min.kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(min.as_int(), std::numeric_limits<std::int64_t>::min());

  const JsonValue over = accept("9223372036854775808");
  EXPECT_EQ(over.kind(), JsonValue::Kind::kDouble);
  EXPECT_EQ(over.as_double(), 9223372036854775808.0);
  // An int cannot carry the sign of "-0", so it reads as the double
  // -0.0, which the writer prints back as "-0".
  const JsonValue neg_zero = accept("-0");
  EXPECT_EQ(neg_zero.kind(), JsonValue::Kind::kDouble);
  EXPECT_TRUE(std::signbit(neg_zero.as_double()));
  EXPECT_EQ(write_canonical(neg_zero), "-0\n");
  const JsonValue under = accept("-99999999999999999999");
  EXPECT_EQ(under.kind(), JsonValue::Kind::kDouble);
  EXPECT_EQ(under.as_double(), -1e20);
}

TEST(Json, AsIntSaturatesOutOfRangeDoubles) {
  EXPECT_EQ(JsonValue(1e300).as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(JsonValue(-1e300).as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(JsonValue(std::nan("")).as_int(), 0);
  EXPECT_EQ(JsonValue(-2.9).as_int(), -2);
}

TEST(Json, TrailingBytesAreALocatedError) {
  EXPECT_EQ(reject("{}\n  x"),
            "line 2, col 3: trailing bytes after the top-level value");
  EXPECT_EQ(reject("1 2"),
            "line 1, col 3: trailing bytes after the top-level value");
  accept("{} \n\t ");
}

TEST(Json, NestingDeeperThan64IsALocatedError) {
  accept(std::string(64, '[') + std::string(64, ']'));
  EXPECT_EQ(reject(std::string(65, '[') + std::string(65, ']')),
            "line 1, col 65: nesting too deep");
  // Far past the limit the parser stops at the limit; it never
  // recurses as deep as the input.
  EXPECT_EQ(reject(std::string(100000, '[')),
            "line 1, col 65: nesting too deep");
}

TEST(Json, MalformedInputIsLocated) {
  EXPECT_EQ(reject(""), "line 1, col 1: unexpected end of input");
  EXPECT_EQ(reject("[1,\n]"), "line 2, col 1: malformed number");
  EXPECT_EQ(reject("{\"a\" 1}"), "line 1, col 6: expected ':'");
  EXPECT_EQ(reject("[1 2]"), "line 1, col 4: expected ',' or ']'");
  EXPECT_EQ(reject("\"open"), "line 1, col 6: unterminated string");
  EXPECT_EQ(reject("nul"), "line 1, col 1: bad literal (expected 'null')");
  EXPECT_EQ(reject("{1: 2}"), "line 1, col 2: expected '\"'");
}

TEST(Json, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(1e21), "1e+21");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "1e999");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()),
            "-1e999");
  EXPECT_EQ(format_double(std::nan("")), "0");
}

TEST(Json, AppendJsonStringEscapesControlBytes) {
  std::string out;
  append_json_string(out, "q\"b\\n\nt\tr\r\x1f\x7f\xc3\xa9");
  EXPECT_EQ(out, "\"q\\\"b\\\\n\\nt\\tr\\r\\u001f\x7f\xc3\xa9\"");
}

}  // namespace
}  // namespace drift::util
