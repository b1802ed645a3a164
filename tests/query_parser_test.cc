#include "src/router/query_parser.h"

#include <gtest/gtest.h>

namespace soap::router {
namespace {

TEST(QueryParserTest, BasicSelect) {
  auto r = QueryParser::Parse("SELECT content FROM t WHERE key = 42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, ParsedQuery::Kind::kSelect);
  EXPECT_EQ(r->key, 42u);
  EXPECT_EQ(r->table, "t");
}

TEST(QueryParserTest, BasicUpdate) {
  auto r = QueryParser::Parse("UPDATE items SET content = -7 WHERE key = 9");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, ParsedQuery::Kind::kUpdate);
  EXPECT_EQ(r->key, 9u);
  EXPECT_EQ(r->value, -7);
  EXPECT_EQ(r->table, "items");
}

TEST(QueryParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(QueryParser::Parse("select content from t where key = 1").ok());
  EXPECT_TRUE(
      QueryParser::Parse("UpDaTe t SeT content = 2 WhErE key = 1").ok());
}

TEST(QueryParserTest, FlexibleWhitespace) {
  EXPECT_TRUE(QueryParser::Parse("  SELECT   content\tFROM  t\n WHERE key=5 ")
                  .ok());
  EXPECT_TRUE(
      QueryParser::Parse("UPDATE t SET content=1 WHERE key=2;").ok());
}

TEST(QueryParserTest, TrailingSemicolonAllowed) {
  EXPECT_TRUE(
      QueryParser::Parse("SELECT content FROM t WHERE key = 1;").ok());
}

TEST(QueryParserTest, KeywordPrefixIdentifiersAccepted) {
  // "selection" must not parse as the keyword SELECT.
  EXPECT_FALSE(
      QueryParser::Parse("selection content FROM t WHERE key = 1").ok());
  // Table names sharing keyword prefixes are fine.
  auto r = QueryParser::Parse("SELECT content FROM fromage WHERE key = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table, "fromage");
}

TEST(QueryParserTest, RoundTripSelect) {
  ParsedQuery q;
  q.kind = ParsedQuery::Kind::kSelect;
  q.key = 123;
  q.table = "t";
  auto r = QueryParser::Parse(QueryParser::ToSql(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->key, 123u);
}

TEST(QueryParserTest, RoundTripUpdate) {
  ParsedQuery q;
  q.kind = ParsedQuery::Kind::kUpdate;
  q.key = 5;
  q.value = 999;
  q.table = "data";
  auto r = QueryParser::Parse(QueryParser::ToSql(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, ParsedQuery::Kind::kUpdate);
  EXPECT_EQ(r->value, 999);
}

struct InvalidCase {
  const char* name;
  const char* sql;
};

// Without a printer gtest dumps the two pointers' bytes, so the listed test
// names (and the CTest names discovered from them) change from run to run.
void PrintTo(const InvalidCase& c, std::ostream* os) { *os << c.name; }

class InvalidQueries : public ::testing::TestWithParam<InvalidCase> {};

TEST_P(InvalidQueries, Rejected) {
  auto r = QueryParser::Parse(GetParam().sql);
  EXPECT_FALSE(r.ok()) << GetParam().sql;
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InvalidQueries,
    ::testing::Values(
        InvalidCase{"Empty", ""},
        InvalidCase{"Garbage", "DROP TABLE t"},
        InvalidCase{"MissingFrom", "SELECT content t WHERE key = 1"},
        InvalidCase{"MissingWhere", "SELECT content FROM t"},
        InvalidCase{"NonKeyPredicate",
                    "SELECT content FROM t WHERE name = 1"},
        InvalidCase{"MissingKeyLiteral",
                    "SELECT content FROM t WHERE key ="},
        InvalidCase{"NegativeKey", "SELECT content FROM t WHERE key = -3"},
        InvalidCase{"TrailingJunk",
                    "SELECT content FROM t WHERE key = 1 ORDER BY x"},
        InvalidCase{"UpdateMissingSet", "UPDATE t content = 1 WHERE key = 2"},
        InvalidCase{"UpdateMissingValue",
                    "UPDATE t SET content = WHERE key = 2"},
        InvalidCase{"RangePredicate",
                    "SELECT content FROM t WHERE key > 5"}),
    [](const ::testing::TestParamInfo<InvalidCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace soap::router
