#include "query/explain.h"

#include <gtest/gtest.h>

#include "query/parser.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using testing::PaperFixture;

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() : session_(fixture_.graph) {}

  std::string Plan(std::string_view text) {
    auto result = ExplainText(session_.database(), text);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : std::string();
  }

  PaperFixture fixture_;
  Session session_;
};

TEST_F(ExplainTest, IndexSeekShown) {
  std::string plan = Plan(
      "START n=node:node_auto_index('short_name: cmd') RETURN n");
  EXPECT_NE(plan.find("NodeByIndexSeek n"), std::string::npos);
  EXPECT_NE(plan.find("short_name: cmd"), std::string::npos);
  EXPECT_NE(plan.find("Produce n"), std::string::npos);
}

TEST_F(ExplainTest, AnchorPrefersBoundVariable) {
  std::string plan = Plan(
      "START n=node(0) MATCH n -[:calls]-> m RETURN m");
  EXPECT_NE(plan.find("anchored on bound 'n'"), std::string::npos);
}

TEST_F(ExplainTest, AnchorUsesLabelScanWhenUnbound) {
  std::string plan = Plan("MATCH (n:function) -[:calls]-> m RETURN m");
  EXPECT_NE(plan.find("NodeByLabelScan(:function)"), std::string::npos);
  // The fixture has 6 functions.
  EXPECT_NE(plan.find("~6 candidates"), std::string::npos);
}

TEST_F(ExplainTest, AllNodesScanForBareVariable) {
  std::string plan = Plan("MATCH (n) RETURN n");
  EXPECT_NE(plan.find("AllNodesScan"), std::string::npos);
}

TEST_F(ExplainTest, VarLengthFlaggedAsPathEnumeration) {
  // `RETURN m` observes one row per path, so the closure kernel cannot be
  // substituted — the plan keeps full path enumeration.
  std::string plan = Plan(
      "START n=node(0) MATCH n -[:calls*]-> m RETURN m");
  EXPECT_NE(plan.find("[path enumeration]"), std::string::npos);
}

TEST_F(ExplainTest, VarLengthWithDistinctUsesCsrFastPath) {
  // The Figure 6 shape: path multiplicity is collapsed by DISTINCT, so the
  // plan dispatches to the parallel CSR closure kernel.
  std::string plan = Plan(
      "START n=node(0) MATCH n -[:calls*]-> m RETURN distinct m");
  EXPECT_NE(plan.find("CSR closure fast path"), std::string::npos);
  EXPECT_EQ(plan.find("[path enumeration]"), std::string::npos);
  EXPECT_NE(plan.find("Produce DISTINCT"), std::string::npos);
}

TEST_F(ExplainTest, FilterAndAggregateAndSort) {
  std::string plan = Plan(
      "MATCH (n:function) -[r:calls]-> m WHERE r.use_start_line > 5 "
      "RETURN m, count(*) AS c ORDER BY c DESC LIMIT 3");
  EXPECT_NE(plan.find("Filter r.use_start_line > 5"), std::string::npos);
  EXPECT_NE(plan.find("Aggregate"), std::string::npos);
  EXPECT_NE(plan.find("count(*) AS c"), std::string::npos);
  EXPECT_NE(plan.find("Sort c DESC"), std::string::npos);
  EXPECT_NE(plan.find("Limit 3"), std::string::npos);
}

TEST_F(ExplainTest, ShortestPathOperator) {
  std::string plan = Plan(
      "START a=node(0), b=node(1) "
      "MATCH shortestPath(a -[:calls*]-> b) RETURN a");
  EXPECT_NE(plan.find("ShortestPath"), std::string::npos);
  EXPECT_NE(plan.find("bidirectional BFS"), std::string::npos);
}

TEST_F(ExplainTest, WithResetsBindings) {
  std::string plan = Plan(
      "MATCH (n:function) WITH distinct n AS f MATCH f -[:calls]-> g "
      "RETURN g");
  EXPECT_NE(plan.find("Project DISTINCT n AS f"), std::string::npos);
  // The second MATCH anchors on f, which WITH re-bound.
  EXPECT_NE(plan.find("anchored on bound 'f'"), std::string::npos);
}

TEST_F(ExplainTest, PatternPredicateRendered) {
  std::string plan = Plan(
      "START w=node(0) MATCH (n:function) WHERE n -[:calls*]-> w RETURN n");
  EXPECT_NE(plan.find("Filter exists("), std::string::npos);
  // Both endpoints are bound: the reachability kernel answers it.
  EXPECT_NE(plan.find("[reachability kernel]"), std::string::npos) << plan;
}

TEST_F(ExplainTest, ReachabilityKernelNeedsAReachabilityPattern) {
  // Figure 4's single-hop property pattern enumerates.
  std::string plan = Plan(
      "START n=node(0) WHERE (n) <-[{NAME_START_LINE: 104}]- () RETURN n");
  EXPECT_NE(plan.find("Filter exists("), std::string::npos) << plan;
  EXPECT_EQ(plan.find("[reachability kernel]"), std::string::npos) << plan;
  // min length 2 distinguishes paths reachability cannot.
  plan = Plan(
      "START w=node(0) MATCH (n:function) WHERE n -[:calls*2..]-> w "
      "RETURN n");
  EXPECT_EQ(plan.find("[reachability kernel]"), std::string::npos) << plan;
}

TEST_F(ExplainTest, ParseErrorsPropagate) {
  auto result = ExplainText(session_.database(), "MATCH (n RETURN n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}


TEST_F(ExplainTest, IndexBackedPropertySeek) {
  std::string plan = Plan(
      "MATCH (n:function {short_name: 'helper_a'}) -[:calls]-> m RETURN m");
  EXPECT_NE(plan.find("NodeIndexSeek(short_name = 'helper_a')"),
            std::string::npos);
  EXPECT_NE(plan.find("~1 candidates"), std::string::npos);
}

TEST(DescribeExprTest, RendersAllNodeKinds) {
  auto parsed = Parse(
      "START n=node(1) WHERE (n.a = 1 AND NOT n.b <> 'x') OR "
      "has(n.c) RETURN n");
  ASSERT_TRUE(parsed.ok());
  const auto& where = std::get<WhereClause>(parsed->clauses[1]);
  std::string text = DescribeExpr(*where.predicate);
  EXPECT_NE(text.find("n.a = 1"), std::string::npos);
  EXPECT_NE(text.find("NOT"), std::string::npos);
  EXPECT_NE(text.find("'x'"), std::string::npos);
  EXPECT_NE(text.find("has(n.c)"), std::string::npos);
  EXPECT_NE(text.find(" OR "), std::string::npos);
}

}  // namespace
}  // namespace frappe::query
