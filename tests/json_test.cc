#include "src/common/json.h"

#include <gtest/gtest.h>

#include <string>

namespace soap::json {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(Escape("plain"), "plain");
  EXPECT_EQ(Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(Escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(Escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_TRUE(Parse("true")->AsBool());
  EXPECT_FALSE(Parse("false")->AsBool());
  EXPECT_DOUBLE_EQ(Parse("3.5")->AsDouble(), 3.5);
  EXPECT_EQ(Parse("-12")->AsInt64(), -12);
  EXPECT_EQ(Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, StringEscapeRoundTrip) {
  const std::string original = "line1\nline2\t\"quoted\" back\\slash";
  const std::string escaped = Escape(original);
  Result<Value> parsed = Parse("\"" + escaped + "\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsString(), original);
}

TEST(JsonParseTest, ObjectsKeepInsertionOrderAndFindWorks) {
  Result<Value> parsed =
      Parse(R"({"b":1,"a":{"nested":[1,2,3]},"c":"x"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  ASSERT_EQ(parsed->AsObject().size(), 3u);
  EXPECT_EQ(parsed->AsObject()[0].first, "b");
  EXPECT_EQ(parsed->AsObject()[1].first, "a");
  const Value* nested = parsed->Find("a");
  ASSERT_NE(nested, nullptr);
  ASSERT_NE(nested->Find("nested"), nullptr);
  EXPECT_EQ(nested->Find("nested")->AsArray().size(), 3u);
  EXPECT_EQ(parsed->Find("missing"), nullptr);
  EXPECT_EQ(parsed->GetString("c"), "x");
  EXPECT_EQ(parsed->GetUint64("b"), 1u);
  EXPECT_EQ(parsed->GetUint64("absent", 7), 7u);
}

TEST(JsonParseTest, LargeIntegersSurviveExactly) {
  // 2^52 fits a double exactly; every counter we serialise is below it.
  Result<Value> parsed = Parse("{\"n\":4503599627370496}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetUint64("n"), 4503599627370496u);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("{\"a\":}").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("nul").ok());
  EXPECT_FALSE(Parse("1 2").ok());  // trailing tokens
}

TEST(JsonParseLinesTest, OneValuePerLineSkippingBlanks) {
  Result<std::vector<Value>> lines =
      ParseLines("{\"a\":1}\n\n{\"b\":2}\n");
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  ASSERT_EQ(lines->size(), 2u);
  EXPECT_EQ((*lines)[0].GetUint64("a"), 1u);
  EXPECT_EQ((*lines)[1].GetUint64("b"), 2u);
}

TEST(JsonParseLinesTest, ReportsFailingLineNumber) {
  Result<std::vector<Value>> lines = ParseLines("{\"ok\":1}\n{broken\n");
  ASSERT_FALSE(lines.ok());
  EXPECT_NE(lines.status().ToString().find("line 2"), std::string::npos)
      << lines.status().ToString();
}

}  // namespace
}  // namespace soap::json
