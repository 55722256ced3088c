#include "common/json.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace gamedb::json {
namespace {

TEST(JsonQuoteTest, ShortEscapes) {
  EXPECT_EQ(Quote(""), "\"\"");
  EXPECT_EQ(Quote("plain"), "\"plain\"");
  EXPECT_EQ(Quote("\""), "\"\\\"\"");
  EXPECT_EQ(Quote("\\"), "\"\\\\\"");
  EXPECT_EQ(Quote("\n"), "\"\\n\"");
  EXPECT_EQ(Quote("\r"), "\"\\r\"");
  EXPECT_EQ(Quote("\t"), "\"\\t\"");
}

TEST(JsonQuoteTest, OtherControlBytesBecomeUnicodeEscapes) {
  EXPECT_EQ(Quote("\x01"), "\"\\u0001\"");
  EXPECT_EQ(Quote("\x1f"), "\"\\u001f\"");
  EXPECT_EQ(Quote(std::string(1, '\0')), "\"\\u0000\"");
}

TEST(JsonQuoteTest, DelAndUtf8AreCopiedRaw) {
  EXPECT_EQ(Quote("\x7f"), "\"\x7f\"");
  const std::string snowman = "\xe2\x98\x83";  // U+2603
  EXPECT_EQ(Quote(snowman), "\"" + snowman + "\"");
}

TEST(JsonQuoteTest, EveryAsciiByteRoundTripsThroughParseJson) {
  for (int b = 0; b <= 0x7f; ++b) {
    const std::string s = "a" + std::string(1, static_cast<char>(b)) + "z";
    Result<JsonValue> parsed = ParseJson(Quote(s));
    ASSERT_TRUE(parsed.ok()) << "byte " << b << ": "
                             << parsed.status().ToString();
    ASSERT_TRUE(parsed->Is(JsonValue::Kind::kString)) << "byte " << b;
    EXPECT_EQ(parsed->str, s) << "byte " << b;
  }
}

TEST(JsonFixed3Test, FiniteValuesKeepThreeDecimals) {
  EXPECT_EQ(Fixed3(0.0), "0.000");
  EXPECT_EQ(Fixed3(1.5), "1.500");
  EXPECT_EQ(Fixed3(-2.25), "-2.250");
  EXPECT_EQ(Fixed3(1e20), "100000000000000000000.000");
}

TEST(JsonFixed3Test, NonFiniteValuesRenderAsZero) {
  EXPECT_EQ(Fixed3(std::numeric_limits<double>::quiet_NaN()), "0.000");
  EXPECT_EQ(Fixed3(std::numeric_limits<double>::infinity()), "0.000");
  EXPECT_EQ(Fixed3(-std::numeric_limits<double>::infinity()), "0.000");
}

std::string NestedArrays(int depth) {
  return std::string(static_cast<size_t>(depth), '[') + "0" +
         std::string(static_cast<size_t>(depth), ']');
}

TEST(JsonParseTest, NestingBoundIsExact) {
  Result<JsonValue> at_limit = ParseJson(NestedArrays(kMaxDepth));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  const JsonValue* v = &*at_limit;
  for (int i = 0; i < kMaxDepth; ++i) {
    ASSERT_TRUE(v->Is(JsonValue::Kind::kArray)) << "level " << i;
    ASSERT_EQ(v->elements.size(), 1u) << "level " << i;
    v = &v->elements[0];
  }
  EXPECT_TRUE(v->Is(JsonValue::Kind::kNumber));

  Result<JsonValue> past = ParseJson(NestedArrays(kMaxDepth + 1));
  ASSERT_FALSE(past.ok());
  EXPECT_TRUE(past.status().IsParseError()) << past.status().ToString();

  // Objects count toward the same bound.
  std::string objects;
  for (int i = 0; i <= kMaxDepth; ++i) objects += "{\"k\":";
  objects += "0" + std::string(static_cast<size_t>(kMaxDepth) + 1, '}');
  EXPECT_TRUE(ParseJson(objects).status().IsParseError());
}

}  // namespace
}  // namespace gamedb::json
