#include "query/fast_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/explain.h"
#include "query/parser.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using testing::PaperFixture;

class FastPathTest : public ::testing::Test {
 protected:
  FastPathTest() : session_(fixture_.graph) {}

  // Runs `text` and returns the rows rendered to strings, sorted — a
  // representation independent of emission order.
  std::vector<std::string> Rows(std::string_view text,
                                const ExecOptions& options) {
    auto result = session_.Run(text, options);
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<std::string> rows;
    if (!result.ok()) return rows;
    for (const auto& row : result->rows) {
      std::string line;
      for (const auto& value : row) {
        line += value.ToString(session_.database()) + "|";
      }
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  // Asserts the query produces identical rows with the fast path on and
  // off.
  void ExpectFastPathTransparent(std::string_view text) {
    ExecOptions off;
    off.use_csr_fast_path = false;
    EXPECT_EQ(Rows(text, {}), Rows(text, off)) << text;
  }

  PaperFixture fixture_;
  Session session_;
};

constexpr const char* kFigure6 =
    "START n=node:node_auto_index('short_name: sr_media_change') "
    "MATCH n -[:calls*]-> m RETURN distinct m";

TEST_F(FastPathTest, Figure6SameRowsWithAndWithoutFastPath) {
  ExpectFastPathTransparent(kFigure6);
  // And the closure is the expected one.
  std::vector<std::string> rows = Rows(kFigure6, {});
  EXPECT_EQ(rows.size(), 4u);  // helper_a, helper_b, get_sectorsize, ioctl
}

TEST_F(FastPathTest, ReversedDirectionAnchorsOnBoundTarget) {
  // The bound endpoint is on the right: traverse against the arrow.
  ExpectFastPathTransparent(
      "START w=node:node_auto_index('short_name: sr_do_ioctl') "
      "MATCH m -[:calls*]-> w RETURN distinct m");
}

TEST_F(FastPathTest, CountDistinctAggregation) {
  ExpectFastPathTransparent(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN count(distinct m) AS c");
}

TEST_F(FastPathTest, ZeroMinLengthIncludesSeed) {
  ExpectFastPathTransparent(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*0..]-> m RETURN distinct m");
}

TEST_F(FastPathTest, WithDistinctPipeline) {
  ExpectFastPathTransparent(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m WITH distinct m AS callee "
      "RETURN callee");
}

TEST_F(FastPathTest, MultiplicityObservingQueryUnaffected) {
  // RETURN m (no DISTINCT) counts one row per path — ineligible, but must
  // still execute correctly with the fast-path switch on.
  ExpectFastPathTransparent(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN m");
}

TEST_F(FastPathTest, EligibilityRules) {
  auto eligibility = [](std::string_view text) {
    auto parsed = Parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    for (size_t i = 0; i < parsed->clauses.size(); ++i) {
      if (const auto* match =
              std::get_if<MatchClause>(&parsed->clauses[i])) {
        return ChainEligibleForCsrClosure(*parsed, i, match->chains[0]);
      }
    }
    ADD_FAILURE() << "no MATCH clause in " << text;
    return FastPathDecision{};
  };
  EXPECT_TRUE(eligibility(kFigure6).eligible);
  // One row per path reaches RETURN.
  EXPECT_FALSE(
      eligibility("MATCH n -[:calls*]-> m RETURN m").eligible);
  // count(*) observes multiplicity.
  EXPECT_FALSE(
      eligibility("MATCH n -[:calls*]-> m RETURN count(*) AS c").eligible);
  // count(distinct m) does not.
  EXPECT_TRUE(
      eligibility("MATCH n -[:calls*]-> m RETURN count(distinct m) AS c")
          .eligible);
  // The relationship variable binds the path edges.
  EXPECT_FALSE(
      eligibility("MATCH n -[r:calls*]-> m RETURN distinct m").eligible);
  // Fixed-length hop.
  EXPECT_FALSE(
      eligibility("MATCH n -[:calls]-> m RETURN distinct m").eligible);
  // Shallow bounded expansion stays on the enumerator.
  EXPECT_FALSE(
      eligibility("MATCH n -[:calls*1..2]-> m RETURN distinct m").eligible);
  // Deep bounded expansion qualifies.
  EXPECT_TRUE(
      eligibility("MATCH n -[:calls*1..20]-> m RETURN distinct m").eligible);
  // A filter between MATCH and the collapse is scanned through.
  EXPECT_TRUE(
      eligibility("MATCH n -[:calls*]-> m WHERE m.short_name = 'x' "
                  "RETURN distinct m")
          .eligible);
}

TEST_F(FastPathTest, ExplainReportsFastPath) {
  auto plan = ExplainText(session_.database(), kFigure6);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("CSR closure fast path"), std::string::npos) << *plan;
}

TEST_F(FastPathTest, StepBudgetSurfacesThroughFastPath) {
  ExecOptions options;
  options.max_steps = 2;
  options.use_csr_fast_path = true;
  auto result = session_.Run(kFigure6, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("step budget"),
            std::string::npos);
}

TEST_F(FastPathTest, TargetLabelFilterApplies) {
  // Post-filtering the closure members by the target pattern's label must
  // match the enumerating path.
  ExpectFastPathTransparent(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> (m:function) RETURN distinct m");
}

}  // namespace
}  // namespace frappe::query
