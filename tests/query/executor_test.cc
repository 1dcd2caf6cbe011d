#include "query/executor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "query/parser.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using graph::NodeId;
using testing::PaperFixture;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : session_(fixture_.graph) {}

  QueryResult Run(std::string_view text) {
    auto result = session_.Run(text);
    EXPECT_TRUE(result.ok()) << text << " => " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::set<NodeId> NodeColumn(const QueryResult& result, size_t col = 0) {
    std::set<NodeId> out;
    for (const auto& row : result.rows) {
      EXPECT_EQ(row[col].kind, ResultValue::Kind::kNode);
      out.insert(row[col].node);
    }
    return out;
  }

  PaperFixture fixture_;
  Session session_;
};

TEST_F(ExecutorTest, StartByIndexReturnsNodes) {
  QueryResult r = Run("START n=node:node_auto_index('short_name: cmd') "
                      "RETURN n");
  EXPECT_EQ(NodeColumn(r), std::set<NodeId>{fixture_.cmd_field});
  EXPECT_EQ(r.columns, std::vector<std::string>{"n"});
}

TEST_F(ExecutorTest, StartByIdAndAllNodes) {
  QueryResult by_id = Run("START n=node(0) RETURN n");
  EXPECT_EQ(NodeColumn(by_id), std::set<NodeId>{0});

  QueryResult all = Run("START n=node(*) RETURN count(*)");
  ASSERT_EQ(all.rows.size(), 1u);
  EXPECT_EQ(all.rows[0][0].value.AsInt(),
            static_cast<int64_t>(fixture_.graph.store().NodeCount()));
}

TEST_F(ExecutorTest, StartMissingIdFails) {
  auto result = session_.Run("START n=node(99999) RETURN n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, MatchOutgoingSingleHop) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls]-> m RETURN m");
  EXPECT_EQ(NodeColumn(r),
            (std::set<NodeId>{fixture_.helper_a, fixture_.get_sectorsize,
                              fixture_.helper_b}));
}

TEST_F(ExecutorTest, MatchIncomingHop) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_do_ioctl') "
      "MATCH n <-[:calls]- caller RETURN caller");
  EXPECT_EQ(NodeColumn(r),
            (std::set<NodeId>{fixture_.helper_a, fixture_.helper_b}));
}

TEST_F(ExecutorTest, MatchUndirectedHop) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: helper_a') "
      "MATCH n -[:calls]- other RETURN other");
  EXPECT_EQ(NodeColumn(r),
            (std::set<NodeId>{fixture_.sr_media_change, fixture_.sr_do_ioctl}));
}

TEST_F(ExecutorTest, MatchLabelFilter) {
  QueryResult r = Run("MATCH (n:module) RETURN n");
  EXPECT_EQ(NodeColumn(r),
            (std::set<NodeId>{fixture_.wakeup_elf, fixture_.wakeup_o,
                              fixture_.sr_elf}));
}

TEST_F(ExecutorTest, MatchPropertyFilter) {
  QueryResult r = Run("MATCH (n:function {short_name: 'helper_a'}) RETURN n");
  EXPECT_EQ(NodeColumn(r), std::set<NodeId>{fixture_.helper_a});
}

TEST_F(ExecutorTest, MatchUnknownLabelMatchesNothing) {
  QueryResult r = Run("MATCH (n:no_such_label) RETURN n");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, MatchUnknownStringValueMatchesNothing) {
  QueryResult r = Run("MATCH (n {short_name: 'never_interned_xyz'}) RETURN n");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, MatchEdgePropertyFilter) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls {use_start_line: 236}]-> m RETURN m");
  EXPECT_EQ(NodeColumn(r), std::set<NodeId>{fixture_.get_sectorsize});
}

TEST_F(ExecutorTest, VarLengthClosure) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m");
  EXPECT_EQ(NodeColumn(r),
            (std::set<NodeId>{fixture_.helper_a, fixture_.helper_b,
                              fixture_.get_sectorsize, fixture_.sr_do_ioctl}));
}

TEST_F(ExecutorTest, VarLengthBounded) {
  QueryResult two = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*2]-> m RETURN distinct m");
  EXPECT_EQ(NodeColumn(two), std::set<NodeId>{fixture_.sr_do_ioctl});
}

TEST_F(ExecutorTest, VarLengthWithoutDistinctYieldsPathCount) {
  // Two distinct edge paths reach sr_do_ioctl (via helper_a and helper_b):
  // without DISTINCT, Cypher path-enumeration semantics surface both.
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*2]-> m RETURN m");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, ChainThroughMiddleBoundNode) {
  // Anchor selection must handle chains whose bound variable is in the
  // middle: direct <-[s:calls]- from -[r:calls]-> to.
  QueryResult r = Run(
      "START from=node:node_auto_index('short_name: sr_media_change') "
      "MATCH direct <-[s:calls]- from -[r:calls {use_start_line: 236}]-> to "
      "RETURN direct, to");
  // r must be the line-236 call to get_sectorsize; s any *other* call edge
  // (relationship uniqueness), so direct is helper_a or helper_b.
  EXPECT_EQ(NodeColumn(r, 0),
            (std::set<NodeId>{fixture_.helper_a, fixture_.helper_b}));
  EXPECT_EQ(NodeColumn(r, 1), std::set<NodeId>{fixture_.get_sectorsize});
}

TEST_F(ExecutorTest, RelationshipUniquenessWithinMatch) {
  // a -[r1]-> b <-[r2]- a with a single edge between a and b can only match
  // if r1 != r2 — impossible here, so zero rows.
  QueryResult r = Run(
      "START a=node:node_auto_index('short_name: helper_a') "
      "MATCH a -[r1:calls]-> b, a -[r2:calls]-> b RETURN b");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, RelationshipsReusableAcrossMatchClauses) {
  QueryResult r = Run(
      "START a=node:node_auto_index('short_name: helper_a') "
      "MATCH a -[r1:calls]-> b WITH a, b MATCH a -[r2:calls]-> b RETURN b");
  EXPECT_EQ(NodeColumn(r), std::set<NodeId>{fixture_.sr_do_ioctl});
}

TEST_F(ExecutorTest, WhereComparison) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[r:calls]-> m WHERE r.use_start_line > 150 RETURN m");
  EXPECT_EQ(NodeColumn(r),
            (std::set<NodeId>{fixture_.get_sectorsize, fixture_.helper_b}));
}

TEST_F(ExecutorTest, WhereNullComparisonIsFalse) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[r:calls]-> m WHERE r.no_such_prop > 0 RETURN m");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, WhereStringComparison) {
  QueryResult r = Run(
      "MATCH (n:function) WHERE n.short_name = 'helper_b' RETURN n");
  EXPECT_EQ(NodeColumn(r), std::set<NodeId>{fixture_.helper_b});
}

TEST_F(ExecutorTest, WherePatternPredicate) {
  // Functions that transitively call sr_do_ioctl.
  QueryResult r = Run(
      "START w=node:node_auto_index('short_name: sr_do_ioctl') "
      "MATCH (n:function) WHERE n -[:calls*]-> w RETURN n");
  EXPECT_EQ(NodeColumn(r),
            (std::set<NodeId>{fixture_.sr_media_change, fixture_.helper_a,
                              fixture_.helper_b}));
}

TEST_F(ExecutorTest, WhereNotPattern) {
  QueryResult r = Run(
      "START w=node:node_auto_index('short_name: sr_do_ioctl') "
      "MATCH (n:function) WHERE NOT n -[:calls*]-> w RETURN n");
  EXPECT_EQ(NodeColumn(r),
            (std::set<NodeId>{fixture_.get_sectorsize, fixture_.sr_do_ioctl,
                              fixture_.stale_writer}));
}

TEST_F(ExecutorTest, WhereHasProperty) {
  QueryResult r = Run("MATCH (n:field) WHERE has(n.name) RETURN n");
  EXPECT_EQ(NodeColumn(r), std::set<NodeId>{fixture_.id_in_wakeup});
}

TEST_F(ExecutorTest, WithProjectsAndRenames) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: helper_a') "
      "MATCH n -[:calls]-> m WITH m AS callee RETURN callee");
  EXPECT_EQ(r.columns, std::vector<std::string>{"callee"});
  EXPECT_EQ(NodeColumn(r), std::set<NodeId>{fixture_.sr_do_ioctl});
}

TEST_F(ExecutorTest, WithDistinctCollapses) {
  // Both helpers call sr_do_ioctl; WITH distinct m collapses to one row.
  QueryResult r = Run(
      "MATCH (n:function) -[:calls]-> m "
      "WITH distinct m MATCH m -[:calls]-> k RETURN m, k");
  // m with outgoing calls: sr_media_change's callees that call again:
  // helper_a and helper_b (both -> sr_do_ioctl).
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, ReturnDistinct) {
  QueryResult with = Run(
      "MATCH (n:function) -[:calls]-> (m {short_name: 'sr_do_ioctl'}) "
      "RETURN distinct m");
  EXPECT_EQ(with.rows.size(), 1u);
}

// DISTINCT skips its sort only when the rows already arrive strictly
// increasing; unsorted rows, and sorted rows with adjacent duplicates,
// still come back sorted and deduplicated.
TEST_F(ExecutorTest, ReturnDistinctSortsAndDedupesUnsortedRows) {
  const NodeId a = fixture_.sr_media_change, b = fixture_.helper_a,
               c = fixture_.helper_b;
  auto ids = [](std::initializer_list<NodeId> nodes) {
    std::string out;
    for (NodeId n : nodes) out += (out.empty() ? "" : ", ") + std::to_string(n);
    return out;
  };
  auto column = [](const QueryResult& r) {
    std::vector<NodeId> out;
    for (const auto& row : r.rows) out.push_back(row[0].node);
    return out;
  };
  ASSERT_LT(a, b);
  ASSERT_LT(b, c);
  const std::vector<NodeId> sorted = {a, b, c};
  EXPECT_EQ(column(Run("START n=node(" + ids({c, a, c, b, a}) +
                       ") RETURN distinct n")),
            sorted);
  EXPECT_EQ(column(Run("START n=node(" + ids({a, b, b, c}) +
                       ") RETURN distinct n")),
            sorted);
  EXPECT_EQ(column(Run("START n=node(" + ids({a, b, c}) +
                       ") RETURN distinct n")),
            sorted);
  // Two columns: the rows are ordered by the first, then the second.
  QueryResult pairs = Run("START n=node(" + ids({c, a}) + "), m=node(" +
                          ids({b, a, b}) + ") RETURN distinct n, m");
  std::vector<std::pair<NodeId, NodeId>> got;
  for (const auto& row : pairs.rows) got.emplace_back(row[0].node, row[1].node);
  EXPECT_EQ(got, (std::vector<std::pair<NodeId, NodeId>>{
                     {a, a}, {a, b}, {c, a}, {c, b}}));
}

TEST_F(ExecutorTest, ReturnEdgePropertyOfCarriedEdgeVar) {
  QueryResult r = Run(
      "START w=node:node_auto_index('short_name: sr_do_ioctl') "
      "MATCH w -[write:writes_member]-> f "
      "WITH write RETURN write.use_start_line");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value.AsInt(), 150);
}

TEST_F(ExecutorTest, CountStarAndGrouping) {
  QueryResult r = Run(
      "MATCH (caller:function) -[:calls]-> m RETURN caller, count(*) "
      "ORDER BY caller");
  // sr_media_change: 3 calls, helper_a: 1, helper_b: 1.
  ASSERT_EQ(r.rows.size(), 3u);
  int64_t total = 0;
  for (const auto& row : r.rows) total += row[1].value.AsInt();
  EXPECT_EQ(total, 5);
}

TEST_F(ExecutorTest, CountDistinct) {
  // Both helpers call the same target: 2 edges, 1 distinct callee.
  QueryResult r = Run(
      "MATCH (n {short_name: 'sr_do_ioctl'}) <-[:calls]- caller "
      "RETURN count(distinct n), count(*)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value.AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].value.AsInt(), 2);
}

TEST_F(ExecutorTest, OrderByPropertyAndLimit) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[r:calls]-> m "
      "RETURN m, r.use_start_line ORDER BY r.use_start_line DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].value.AsInt(), 300);
  EXPECT_EQ(r.rows[1][1].value.AsInt(), 236);
}

TEST_F(ExecutorTest, OrderBySkip) {
  QueryResult r = Run(
      "MATCH (n:module) RETURN n.short_name AS name ORDER BY name SKIP 1");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, IdFunction) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: cmd') RETURN id(n)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value.AsInt(),
            static_cast<int64_t>(fixture_.cmd_field));
}

TEST_F(ExecutorTest, UndefinedVariableFails) {
  auto result = session_.Run("START n=node(0) RETURN bogus_var");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, MissingReturnFails) {
  auto result = session_.Run("START n=node(0) MATCH n --> m");
  ASSERT_FALSE(result.ok());
}

TEST_F(ExecutorTest, StepBudgetAborts) {
  ExecOptions options;
  options.max_steps = 5;
  auto result = session_.Run("MATCH (n:function) -[:calls*]-> m RETURN m",
                             options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ExecutorTest, DeadlineFiresWithinTolerance) {
  // The deadline is only checked every kDeadlineCheckInterval (1024) steps
  // to keep Tick() a mask test on the hot path. This regression test pins
  // the consequence: on a query with millions of cheap candidate steps
  // (a 5-way cartesian product over all nodes), the deadline must still
  // abort execution promptly — 1024 cheap steps are microseconds, so the
  // enforcement lag stays far under the test's tolerance.
  ExecOptions options;
  options.deadline_ms = 50;
  auto start = std::chrono::steady_clock::now();
  auto result = session_.Run(
      "START a=node(*), b=node(*), c=node(*), d=node(*), e=node(*) "
      "RETURN count(*)",
      options);
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Generous bound (10x the deadline) so sanitizer builds pass, yet tight
  // enough to catch the interval degenerating into seconds of lag.
  EXPECT_LT(elapsed_ms, 500.0);
}

TEST_F(ExecutorTest, StepsReportedOnSuccess) {
  QueryResult r = Run("MATCH (n:module) RETURN n");
  EXPECT_GT(r.steps, 0u);
}

TEST_F(ExecutorTest, PropertyNameAliasesResolve) {
  // Paper Figure 4 writes NAME_START_COLUMN for the key Table 2 calls
  // NAME_START_COL; the Frappé database accepts both.
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[r:reads_member]-> f "
      "WHERE r.NAME_START_COLUMN = 16 RETURN f");
  EXPECT_EQ(NodeColumn(r), std::set<NodeId>{fixture_.id_in_sr});
}


TEST_F(ExecutorTest, ShortestPathBindsFewestEdges) {
  // a->c->d (2 hops) beats a->b->c->d: sr_media_change -> sr_do_ioctl is
  // 2 hops via either helper.
  QueryResult r = Run(
      "START a=node:node_auto_index('short_name: sr_media_change'), "
      "b=node:node_auto_index('short_name: sr_do_ioctl') "
      "MATCH shortestPath(a -[r:calls*]-> b) RETURN length(r)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value.AsInt(), 2);
}

TEST_F(ExecutorTest, ShortestPathUnreachableYieldsNoRow) {
  QueryResult r = Run(
      "START a=node:node_auto_index('short_name: get_sectorsize'), "
      "b=node:node_auto_index('short_name: sr_media_change') "
      "MATCH shortestPath(a -[:calls*]-> b) RETURN a");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, ShortestPathRespectsMaxLength) {
  QueryResult r = Run(
      "START a=node:node_auto_index('short_name: sr_media_change'), "
      "b=node:node_auto_index('short_name: sr_do_ioctl') "
      "MATCH shortestPath(a -[:calls*..1]-> b) RETURN a");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, ShortestPathRequiresBoundEndpoints) {
  auto result = session_.Run(
      "MATCH shortestPath((a:function) -[:calls*]-> (b:function)) RETURN a");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, ShortestPathRejectsFixedLengthRel) {
  auto result = session_.Run(
      "START a=node(0), b=node(1) "
      "MATCH shortestPath(a -[:calls]-> b) RETURN a");
  EXPECT_FALSE(result.ok());
}

TEST_F(ExecutorTest, LengthOfStringProperty) {
  QueryResult r = Run(
      "START n=node:node_auto_index('short_name: cmd') "
      "RETURN length(n.short_name)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value.AsInt(), 3);
}

TEST_F(ExecutorTest, GlobalCountOverNoMatchesIsZeroRow) {
  QueryResult r = Run(
      "MATCH (n:function {short_name: 'does_not_exist'}) RETURN count(*)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value.AsInt(), 0);
}


TEST_F(ExecutorTest, IndexBackedMatchAnchorReturnsSameResults) {
  // MATCH with an indexed string property must use the auto index (few
  // engine steps) and agree with the label-scan answer.
  QueryResult seek = Run(
      "MATCH (n {short_name: 'helper_a'}) -[:calls]-> m RETURN m");
  EXPECT_EQ(NodeColumn(seek), std::set<NodeId>{fixture_.sr_do_ioctl});
  // Far fewer candidates tested than a full node scan would need.
  EXPECT_LT(seek.steps, fixture_.graph.store().NodeCount());
}

}  // namespace
}  // namespace frappe::query
