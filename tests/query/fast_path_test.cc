#include "query/fast_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/analytics.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using graph::NodeId;
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

// A seed on a call cycle is a closure member, so `*0..` must not add the
// zero-length row on top of it: the seed comes back once, in order.
TEST_F(FastPathTest, ZeroMinLengthSeedOnCycleReturnedOnce) {
  fixture_.AddCall(fixture_.sr_do_ioctl, fixture_.sr_media_change, 500);
  const std::string query =
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*0..]-> m RETURN distinct m";
  ExpectFastPathTransparent(query);
  auto result = session_.Run(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.fast_path_taken);
  std::vector<NodeId> got;
  for (const auto& row : result->rows) got.push_back(row[0].node);
  EXPECT_EQ(got, (std::vector<NodeId>{
                     fixture_.sr_media_change, fixture_.get_sectorsize,
                     fixture_.helper_a, fixture_.helper_b,
                     fixture_.sr_do_ioctl}));
}

// A seed off the cycle with a smaller-id callee is emitted ahead of the
// closure members, out of order: DISTINCT must still sort the rows.
TEST_F(FastPathTest, ZeroMinLengthSeedAheadOfSmallerMembersIsSorted) {
  fixture_.AddCall(fixture_.sr_do_ioctl, fixture_.get_sectorsize, 500);
  ASSERT_LT(fixture_.get_sectorsize, fixture_.sr_do_ioctl);
  auto result = session_.Run(
      "START n=node:node_auto_index('short_name: sr_do_ioctl') "
      "MATCH n -[:calls*0..]-> m RETURN distinct m");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.fast_path_taken);
  std::vector<NodeId> got;
  for (const auto& row : result->rows) got.push_back(row[0].node);
  EXPECT_EQ(got, (std::vector<NodeId>{fixture_.get_sectorsize,
                                      fixture_.sr_do_ioctl}));
}

// Figure 6's work accounting: the kernel's edge scans plus one step per
// emitted and projected row. DISTINCT's sorted-run shortcut skips the sort
// but none of these charges. A closure never builds the condensation
// (the build scans every edge twice, more than one closure can), so on a
// fresh graph Fig. 6 runs on the kernel, before and after.
TEST_F(FastPathTest, Figure6StepsAndDbHitsPinned) {
  for (int run = 0; run < 2; ++run) {
    auto result = session_.Run(kFigure6);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->stats.fast_path_taken);
    EXPECT_EQ(result->rows.size(), 4u);
    // 1 index seek + 1 anchor check + 7 kernel edge scans + 4 emitted rows
    // + 4 projected rows.
    EXPECT_EQ(result->stats.steps, 17u);
    EXPECT_EQ(result->stats.db_hits.nodes, 6u);  // seek, anchor, 4 targets
    EXPECT_EQ(result->stats.db_hits.edges, 7u);  // the kernel's edge scans
    EXPECT_EQ(result->stats.db_hits.properties, 0u);
  }
  const Database& db = session_.database();
  const graph::CsrView& csr = db.csr->Get(*db.view);
  EXPECT_EQ(graph::analytics::FindCondensation(
                csr, {fixture_.graph.type_id(model::EdgeKind::kCalls)}),
            nullptr);
}

// Once Fig. 5's reachability Filter has built the `calls` condensation,
// Fig. 6 reads it: its DAG edge scans replace the kernel's edge scans.
TEST_F(FastPathTest, Figure6StepsOnTheCondensationPinned) {
  ASSERT_TRUE(session_.Run(testing::Figure5Query()).ok());
  auto result = session_.Run(kFigure6);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->stats.fast_path_taken);
  EXPECT_EQ(result->rows.size(), 4u);
  // 1 index seek + 1 anchor check + 5 DAG edge scans (3 from the seed's
  // component, 1 from each helper's) + 4 emitted rows + 4 projected rows.
  EXPECT_EQ(result->stats.steps, 15u);
  EXPECT_EQ(result->stats.db_hits.nodes, 6u);  // seek, anchor, 4 targets
  EXPECT_EQ(result->stats.db_hits.edges, 5u);  // the DAG edge scans
  EXPECT_EQ(result->stats.db_hits.properties, 0u);
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
  auto explained = session_.Run(std::string("EXPLAIN ") + kFigure6);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->plan.find("CSR closure fast path"), std::string::npos)
      << explained->plan;
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
