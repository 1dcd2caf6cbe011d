// Cross-validation property tests: the declarative engine and the direct
// traversal/analysis APIs must agree on random graphs. This is the
// strongest correctness check we have for the executor — any divergence in
// path semantics, direction handling or filtering shows up here.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/traversal.h"
#include "model/code_graph.h"
#include "query/session.h"

namespace frappe::query {
namespace {

using graph::NodeId;

struct RandomGraph {
  model::CodeGraph graph{model::CodeGraph::Validation::kOff};
  std::vector<NodeId> functions;

  // `acyclic` keeps the number of edge-distinct paths manageable for the
  // unbounded path-enumeration tests (a dense cyclic core has
  // exponentially many paths — correct, but minutes-slow).
  explicit RandomGraph(uint64_t seed, size_t n = 30, size_t edges = 60,
                       bool acyclic = false) {
    frappe::Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      functions.push_back(graph.AddNode(model::NodeKind::kFunction,
                                        "fn_" + std::to_string(i)));
    }
    for (size_t i = 0; i < edges; ++i) {
      size_t a = rng.Uniform(n);
      size_t b = rng.Uniform(n);
      if (acyclic) {
        if (a == b) continue;
        if (a > b) std::swap(a, b);
      }
      graph.AddEdgeUnchecked(model::EdgeKind::kCalls, functions[a],
                             functions[b]);
    }
  }
};

class CrossValidationTest : public ::testing::TestWithParam<uint64_t> {};

std::set<NodeId> Nodes(const QueryResult& result) {
  std::set<NodeId> out;
  for (const auto& row : result.rows) out.insert(row[0].node);
  return out;
}

TEST_P(CrossValidationTest, VarLengthClosureMatchesDirectTraversal) {
  RandomGraph rg(GetParam(), 30, 60, /*acyclic=*/true);
  Session session(rg.graph);
  NodeId seed = rg.functions[GetParam() % rg.functions.size()];

  auto fql = session.Run("START n=node(" + std::to_string(seed) + ") " +
                         "MATCH n -[:calls*]-> m RETURN distinct m");
  ASSERT_TRUE(fql.ok()) << fql.status();

  auto direct = graph::TransitiveClosure(
      rg.graph.view(), seed,
      graph::EdgeFilter::Of({rg.graph.type_id(model::EdgeKind::kCalls)}));
  EXPECT_EQ(Nodes(*fql), std::set<NodeId>(direct.begin(), direct.end()));
}

TEST_P(CrossValidationTest, IncomingClosureMatchesForwardSlice) {
  RandomGraph rg(GetParam(), 30, 60, /*acyclic=*/true);
  Session session(rg.graph);
  NodeId seed = rg.functions[(GetParam() * 7) % rg.functions.size()];

  auto fql = session.Run("START n=node(" + std::to_string(seed) + ") " +
                         "MATCH n <-[:calls*]- m RETURN distinct m");
  ASSERT_TRUE(fql.ok()) << fql.status();
  auto direct = graph::TransitiveClosure(
      rg.graph.view(), seed,
      graph::EdgeFilter::Of({rg.graph.type_id(model::EdgeKind::kCalls)},
                            graph::Direction::kIn));
  EXPECT_EQ(Nodes(*fql), std::set<NodeId>(direct.begin(), direct.end()));
}

TEST_P(CrossValidationTest, SingleHopMatchesAdjacency) {
  RandomGraph rg(GetParam());
  Session session(rg.graph);
  NodeId seed = rg.functions[(GetParam() * 3) % rg.functions.size()];

  auto fql = session.Run("START n=node(" + std::to_string(seed) + ") " +
                         "MATCH n -[:calls]-> m RETURN distinct m");
  ASSERT_TRUE(fql.ok()) << fql.status();
  std::set<NodeId> expected;
  rg.graph.view().ForEachEdge(seed, graph::Direction::kOut,
                              [&](graph::EdgeId, NodeId neighbor) {
                                expected.insert(neighbor);
                                return true;
                              });
  EXPECT_EQ(Nodes(*fql), expected);
}

TEST_P(CrossValidationTest, DepthLimitedClosureMatches) {
  RandomGraph rg(GetParam(), 30, 45);
  Session session(rg.graph);
  NodeId seed = rg.functions[(GetParam() * 11) % rg.functions.size()];

  auto fql = session.Run("START n=node(" + std::to_string(seed) + ") " +
                         "MATCH n -[:calls*1..3]-> m RETURN distinct m");
  ASSERT_TRUE(fql.ok()) << fql.status();
  auto direct = graph::TransitiveClosure(
      rg.graph.view(), seed,
      graph::EdgeFilter::Of({rg.graph.type_id(model::EdgeKind::kCalls)}), 3);
  EXPECT_EQ(Nodes(*fql), std::set<NodeId>(direct.begin(), direct.end()));
}

TEST_P(CrossValidationTest, PatternPredicateMatchesReachability) {
  RandomGraph rg(GetParam());
  Session session(rg.graph);
  NodeId target = rg.functions[(GetParam() * 13) % rg.functions.size()];

  // WHERE n -[:calls*]-> target: the reachability short-circuit path.
  auto fql = session.Run(
      "START t=node(" + std::to_string(target) + ") " +
      "MATCH (n:function) WHERE n -[:calls*]-> t RETURN n");
  ASSERT_TRUE(fql.ok()) << fql.status();

  graph::EdgeFilter filter = graph::EdgeFilter::Of(
      {rg.graph.type_id(model::EdgeKind::kCalls)}, graph::Direction::kIn);
  auto callers = graph::TransitiveClosure(rg.graph.view(), target, filter);
  EXPECT_EQ(Nodes(*fql), std::set<NodeId>(callers.begin(), callers.end()));
}

TEST_P(CrossValidationTest, ShortestPathReachabilityConsistent) {
  RandomGraph rg(GetParam());
  graph::EdgeFilter filter = graph::EdgeFilter::Of(
      {rg.graph.type_id(model::EdgeKind::kCalls)});
  NodeId from = rg.functions[GetParam() % rg.functions.size()];
  for (NodeId to : rg.functions) {
    bool reachable = graph::IsReachable(rg.graph.view(), from, to, filter);
    auto path = graph::ShortestPath(rg.graph.view(), from, to, filter);
    EXPECT_EQ(reachable, path.has_value());
    if (path.has_value() && from != to) {
      // Path edges all satisfy the filter and connect consecutively.
      for (size_t i = 0; i < path->edges.size(); ++i) {
        graph::Edge e = rg.graph.store().GetEdge(path->edges[i]);
        EXPECT_EQ(e.src, path->nodes[i]);
        EXPECT_EQ(e.dst, path->nodes[i + 1]);
      }
    }
  }
}

TEST_P(CrossValidationTest, CountStarMatchesRowCount) {
  RandomGraph rg(GetParam());
  Session session(rg.graph);
  auto rows = session.Run("MATCH (n:function) -[:calls]-> m RETURN m");
  auto count = session.Run(
      "MATCH (n:function) -[:calls]-> m RETURN count(*)");
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->rows[0][0].value.AsInt(),
            static_cast<int64_t>(rows->rows.size()));
}

// Every row rendered, in result order.
std::vector<std::string> OrderedRows(const QueryResult& result,
                                     const Database& db) {
  std::vector<std::string> out;
  for (const auto& row : result.rows) {
    std::string line;
    for (const ResultValue& value : row) line += value.ToString(db) + "|";
    out.push_back(std::move(line));
  }
  return out;
}

// The reachability predicate grouped onto the CSR closure kernel (one
// closure per distinct anchor, rows evaluated in anchor order) against the
// per-row store-walking BFS of the fast path off: identical rows in
// identical order.
TEST_P(CrossValidationTest, ReachabilityPredicateKernelMatchesPerRowPath) {
  RandomGraph rg(GetParam(), 20, 30);
  Session session(rg.graph);
  const std::string pairs = "MATCH (a:function), (b:function) WHERE ";
  const std::string two_targets =
      "START b=node(" + std::to_string(rg.functions[GetParam() % 20]) + ", " +
      std::to_string(rg.functions[(GetParam() * 7 + 3) % 20]) +
      ") MATCH (a:function) WHERE ";
  const std::vector<std::string> queries = {
      // Both arrow directions and undirected; many anchors of 20 rows.
      pairs + "a -[:calls*]-> b RETURN a, b",
      pairs + "a <-[:calls*]- b RETURN a, b",
      pairs + "a -[:calls*]- b RETURN a, b",
      pairs + "a -[*]-> b RETURN a, b",
      pairs + "b -[:calls*]-> a RETURN a, b",
      // Length bounds: *0.., *..k, *0..k, exactly one hop.
      pairs + "a -[:calls*0..]-> b RETURN a, b",
      pairs + "a -[:calls*..2]-> b RETURN a, b",
      pairs + "a <-[:calls*0..3]- b RETURN a, b",
      pairs + "a -[:calls*1]-> b RETURN a, b",
      // NOT / OR / AND around the pattern.
      pairs + "NOT a -[:calls*]-> b RETURN a, b",
      pairs + "a -[:calls*]-> b OR b -[:calls*..3]-> a RETURN a, b",
      pairs + "id(a) < id(b) AND NOT a -[:calls*]-> b RETURN a, b",
      // Inside a comparison the WHERE pre-scan does not see the pattern:
      // each probe stops on its own row's endpoint alone.
      pairs + "(b -[:calls*]-> a) = (a -[:calls*..2]-> b) RETURN a, b",
      // Few targets: closures anchor on the target, against the arrow.
      two_targets + "a -[:calls*]-> b RETURN a, b",
      two_targets + "NOT b <-[:calls*..4]- a RETURN a, b",
      // from == to: a cycle under min length 1, trivially true under 0.
      "MATCH (a:function) WHERE a -[:calls*]-> a RETURN a",
      "MATCH (a:function) WHERE a -[:calls*0..]-> a RETURN a",
      "MATCH (a:function) WHERE NOT a <-[:calls*..3]- a RETURN a",
      // Singleton groups: one row per distinct anchor on either side.
      "MATCH (a:function) -[:calls]-> b WHERE b -[:calls*]-> a RETURN a, b",
      "MATCH (a:function) -[:calls]-> b WHERE NOT a -[:calls*2]-> b OR "
      "b -[:calls*]- a RETURN a, b",
  };
  ExecOptions per_row;
  per_row.use_csr_fast_path = false;
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    auto expected = session.Run(query, per_row);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto got = session.Run(query);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(OrderedRows(*got, session.database()),
              OrderedRows(*expected, session.database()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace frappe::query
