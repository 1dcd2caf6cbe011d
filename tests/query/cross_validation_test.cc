// Cross-validation property tests: the declarative engine and the direct
// traversal/analysis APIs must agree on random graphs, and on graphs with
// a giant strongly connected component for the condensation path. This is the
// strongest correctness check we have for the executor — any divergence in
// path semantics, direction handling or filtering shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "extractor/synthetic.h"
#include "graph/analytics.h"
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

// --- Unbounded reachability on the condensation ---

// A call graph shaped like the kernel's: a giant strongly connected ring
// with chords, acyclic callers into it and callees out of it, singleton
// components, self-loops, and reads_member edges that close more cycles
// only under a multi-type filter.
struct SccGraph {
  model::CodeGraph graph{model::CodeGraph::Validation::kOff};
  std::vector<NodeId> functions;

  explicit SccGraph(uint64_t seed, size_t ring = 10, size_t others = 14) {
    frappe::Rng rng(seed);
    for (size_t i = 0; i < ring + others; ++i) {
      functions.push_back(graph.AddNode(model::NodeKind::kFunction,
                                        "fn_" + std::to_string(i)));
    }
    auto call = [&](size_t a, size_t b) {
      graph.AddEdgeUnchecked(model::EdgeKind::kCalls, functions[a],
                             functions[b]);
    };
    for (size_t i = 0; i < ring; ++i) call(i, (i + 1) % ring);
    for (size_t i = 0; i < ring / 2; ++i) {
      call(rng.Uniform(ring), rng.Uniform(ring));
    }
    // Outside the ring, calls go from a lower to a higher index; the first
    // half of those nodes call into the ring and the ring calls into the
    // second half, so they sit upstream and downstream of it.
    for (size_t i = 0; i < 2 * others; ++i) {
      size_t a = ring + rng.Uniform(others);
      size_t b = ring + rng.Uniform(others);
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      call(a, b);
    }
    for (size_t i = 0; i < 3; ++i) {
      call(ring + rng.Uniform(others / 2), rng.Uniform(ring));
      call(rng.Uniform(ring), ring + others / 2 + rng.Uniform(others / 2));
    }
    // One random edge outside the ring, which may close a cycle through
    // the ring or among the others, and a self-loop.
    call(ring + rng.Uniform(others), ring + rng.Uniform(others));
    call(ring + 1, ring + 1);
    for (size_t i = 0; i < 4; ++i) {
      graph.AddEdgeUnchecked(model::EdgeKind::kReadsMember,
                             functions[rng.Uniform(ring + others)],
                             functions[rng.Uniform(ring + others)]);
    }
  }
};

class CondensationTest : public ::testing::TestWithParam<uint64_t> {};

// The oracle for `a -[rel]-> b` with both ends bound, as the fast path off
// answers it: graph::IsReachable, or for a == b a cycle through a
// (graph::TransitiveClosure) unless the minimum length is 0.
bool Reaches(const graph::GraphView& view, NodeId a, NodeId b,
             const graph::EdgeFilter& filter, size_t max_depth, bool min0) {
  if (a == b) {
    if (min0) return true;
    auto closure = graph::TransitiveClosure(view, a, filter, max_depth);
    return std::binary_search(closure.begin(), closure.end(), a);
  }
  return graph::IsReachable(view, a, b, filter, max_depth);
}

// Every (a, b) pair of functions through a WHERE pattern predicate, on
// the condensation and on its bounded and undirected fallbacks: the same
// rows in the same order as the fast path off, and exactly the pairs the
// traversal oracle reaches.
TEST_P(CondensationTest, PairProbesMatchTraversalOracle) {
  SccGraph g(GetParam());
  Session session(g.graph);
  const graph::TypeId calls = g.graph.type_id(model::EdgeKind::kCalls);
  const graph::TypeId reads = g.graph.type_id(model::EdgeKind::kReadsMember);
  using graph::Direction;
  const size_t kAny = std::numeric_limits<size_t>::max();
  struct Case {
    std::string pattern;
    graph::EdgeFilter filter;
    size_t max_depth;
    bool min0;
  };
  const std::vector<Case> cases = {
      {"a -[:calls*]-> b", graph::EdgeFilter::Of({calls}), kAny, false},
      {"a <-[:calls*]- b",
       graph::EdgeFilter::Of({calls}, Direction::kIn), kAny, false},
      {"a -[:calls*0..]-> b", graph::EdgeFilter::Of({calls}), kAny, true},
      {"a -[:calls|reads_member*]-> b",
       graph::EdgeFilter::Of({calls, reads}), kAny, false},
      {"a <-[:reads_member|calls*]- b",
       graph::EdgeFilter::Of({calls, reads}, Direction::kIn), kAny, false},
      {"a -[*]-> b", graph::EdgeFilter::Any(), kAny, false},
      // Fallbacks to the kernel: bounded and undirected.
      {"a -[:calls*..3]-> b", graph::EdgeFilter::Of({calls}), 3, false},
      {"a -[:calls*0..2]-> b", graph::EdgeFilter::Of({calls}), 2, true},
      {"a -[:calls*]- b",
       graph::EdgeFilter::Of({calls}, Direction::kBoth), kAny, false},
  };
  ExecOptions per_row;
  per_row.use_csr_fast_path = false;
  for (const Case& c : cases) {
    const std::string query =
        "MATCH (a:function), (b:function) WHERE " + c.pattern +
        " RETURN a, b";
    SCOPED_TRACE(query);
    auto got = session.Run(query);
    auto expected = session.Run(query, per_row);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(OrderedRows(*got, session.database()),
              OrderedRows(*expected, session.database()));
    std::set<std::pair<NodeId, NodeId>> rows, oracle;
    for (const auto& row : got->rows) rows.insert({row[0].node, row[1].node});
    for (NodeId a : g.functions) {
      for (NodeId b : g.functions) {
        if (Reaches(g.graph.view(), a, b, c.filter, c.max_depth, c.min0)) {
          oracle.insert({a, b});
        }
      }
    }
    EXPECT_EQ(rows, oracle);
  }
}

// Fig. 6 closures from every function, along and against the arrow, from
// either bound endpoint, under one, two and any edge types. A closure only
// reads a condensation a Filter has built, so each case runs once as it
// finds the view and once more after its type set is condensed.
TEST_P(CondensationTest, ClosuresMatchTransitiveClosure) {
  SccGraph g(GetParam());
  Session session(g.graph);
  const graph::TypeId calls = g.graph.type_id(model::EdgeKind::kCalls);
  const graph::TypeId reads = g.graph.type_id(model::EdgeKind::kReadsMember);
  using graph::Direction;
  struct Case {
    std::string match;  // `s` is the bound seed, `m` the closure
    graph::EdgeFilter filter;
  };
  const std::vector<Case> cases = {
      {"s -[:calls*]-> m", graph::EdgeFilter::Of({calls})},
      {"s <-[:calls*]- m", graph::EdgeFilter::Of({calls}, Direction::kIn)},
      // Reversed anchor: the target is bound, so the closure runs against
      // the arrow.
      {"m -[:calls*]-> s", graph::EdgeFilter::Of({calls}, Direction::kIn)},
      {"m <-[:calls*]- s", graph::EdgeFilter::Of({calls})},
      {"s -[:calls|reads_member*]-> m",
       graph::EdgeFilter::Of({calls, reads})},
      {"s <-[*]- m", graph::EdgeFilter::Any(Direction::kIn)},
  };
  ExecOptions per_row;
  per_row.use_csr_fast_path = false;
  auto check = [&](const Case& c) {
    for (NodeId seed : g.functions) {
      const std::string query = "START s=node(" + std::to_string(seed) +
                                ") MATCH " + c.match +
                                " RETURN distinct m";
      SCOPED_TRACE(query);
      auto got = session.Run(query);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(got->stats.fast_path_taken);
      auto direct = graph::TransitiveClosure(g.graph.view(), seed, c.filter);
      std::vector<NodeId> nodes;
      for (const auto& row : got->rows) nodes.push_back(row[0].node);
      EXPECT_EQ(nodes, direct);  // ascending, like the oracle
      auto expected = session.Run(query, per_row);
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(OrderedRows(*got, session.database()),
                OrderedRows(*expected, session.database()));
    }
  };
  const graph::CsrView& csr =
      session.database().csr->Get(*session.database().view);
  for (const Case& c : cases) {
    check(c);
    auto built = graph::analytics::Condense(csr, c.filter.types);
    ASSERT_TRUE(built.ok()) << built.status();
    ASSERT_NE(*built, nullptr);
    check(c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CondensationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

// Singleton and self-loop components, `from == to` under min 1 and `*0..`.
TEST(CondensationCasesTest, SingletonsSelfLoopsAndFromEqualsTo) {
  model::CodeGraph graph{model::CodeGraph::Validation::kOff};
  auto fn = [&](const char* name) {
    return graph.AddNode(model::NodeKind::kFunction, name);
  };
  NodeId lone = fn("lone");   // no calls at all
  NodeId loop = fn("loop");   // calls itself
  NodeId head = fn("head");   // head -> loop, head -> tail
  NodeId tail = fn("tail");
  graph.AddEdgeUnchecked(model::EdgeKind::kCalls, loop, loop);
  graph.AddEdgeUnchecked(model::EdgeKind::kCalls, head, loop);
  graph.AddEdgeUnchecked(model::EdgeKind::kCalls, head, tail);
  // A self-loop of another type does not make `tail` cyclic for calls.
  graph.AddEdgeUnchecked(model::EdgeKind::kReadsMember, tail, tail);
  Session session(graph);
  auto ids = [&](const std::string& query) {
    auto result = session.Run(query);
    EXPECT_TRUE(result.ok()) << query << " => " << result.status();
    std::vector<NodeId> out;
    if (!result.ok()) return out;
    for (const auto& row : result->rows) out.push_back(row[0].node);
    return out;
  };
  EXPECT_EQ(ids("MATCH (a:function) WHERE a -[:calls*]-> a RETURN a"),
            (std::vector<NodeId>{loop}));
  EXPECT_EQ(ids("MATCH (a:function) WHERE a -[:calls*0..]-> a RETURN a"),
            (std::vector<NodeId>{lone, loop, head, tail}));
  EXPECT_EQ(ids("MATCH (a:function) WHERE a -[*]-> a RETURN a"),
            (std::vector<NodeId>{loop, tail}));
  auto id = [](NodeId n) { return std::to_string(n); };
  EXPECT_EQ(ids("START s=node(" + id(loop) +
                ") MATCH s -[:calls*]-> m RETURN distinct m"),
            (std::vector<NodeId>{loop}));
  EXPECT_EQ(ids("START s=node(" + id(tail) +
                ") MATCH s -[:calls*]-> m RETURN distinct m"),
            (std::vector<NodeId>{}));
  EXPECT_EQ(ids("START s=node(" + id(tail) +
                ") MATCH s -[:calls*0..]-> m RETURN distinct m"),
            (std::vector<NodeId>{tail}));
  EXPECT_EQ(ids("START s=node(" + id(head) +
                ") MATCH s -[:calls*]-> m RETURN distinct m"),
            (std::vector<NodeId>{loop, tail}));
  EXPECT_EQ(ids("START s=node(" + id(loop) +
                ") MATCH s <-[:calls*]- m RETURN distinct m"),
            (std::vector<NodeId>{loop, head}));
}

// A mutation that merges two components changes the answer: the
// condensation lives on the packed view, which the topology counter
// rebuilds.
TEST(CondensationCasesTest, MutationMergingTwoComponentsChangesTheAnswer) {
  model::CodeGraph graph{model::CodeGraph::Validation::kOff};
  std::vector<NodeId> fns;
  for (int i = 0; i < 8; ++i) {
    fns.push_back(graph.AddNode(model::NodeKind::kFunction,
                                "fn_" + std::to_string(i)));
  }
  auto call = [&](int a, int b) {
    graph.AddEdgeUnchecked(model::EdgeKind::kCalls, fns[a], fns[b]);
  };
  for (int i = 0; i < 4; ++i) call(i, (i + 1) % 4);          // A: 0..3
  for (int i = 0; i < 4; ++i) call(4 + i, 4 + (i + 1) % 4);  // B: 4..7
  call(0, 4);                                                // A -> B
  Session session(graph);
  const std::string back = "START a=node(" + std::to_string(fns[1]) +
                           "), b=node(" + std::to_string(fns[6]) +
                           ") WHERE b -[:calls*]-> a RETURN a";
  const std::string closure = "START n=node(" + std::to_string(fns[5]) +
                              ") MATCH n -[:calls*]-> m RETURN distinct m";
  ExecOptions per_row;
  per_row.use_csr_fast_path = false;
  auto rows = [&](const std::string& query, const ExecOptions& options) {
    auto result = session.Run(query, options);
    EXPECT_TRUE(result.ok()) << query << " => " << result.status();
    return result.ok() ? result->rows.size() : size_t{0};
  };
  EXPECT_EQ(rows(back, {}), 0u);
  EXPECT_EQ(rows(closure, {}), 4u);

  call(7, 2);  // B -> A: one component of eight
  EXPECT_EQ(rows(back, {}), 1u);
  EXPECT_EQ(rows(back, per_row), 1u);
  EXPECT_EQ(rows(closure, {}), 8u);
  EXPECT_EQ(rows(closure, per_row), 8u);
}

// Type sets come from query text: past CsrView::kMaxCondensations of them
// a Filter answers on the kernel, with the same rows, and the view's
// condensation bytes stop growing.
TEST(CondensationCasesTest, TypeSetsPastTheCapRunOnTheKernel) {
  SccGraph g(3);
  Session session(g.graph);
  const std::vector<std::string> type_sets = {
      "calls",          "reads_member",          "calls|reads_member",
      "calls|contains", "reads_member|contains", "calls|writes_member"};
  ASSERT_GT(type_sets.size(), graph::CsrView::kMaxCondensations);
  ExecOptions per_row;
  per_row.use_csr_fast_path = false;
  uint64_t bytes_at_cap = 0;
  for (size_t i = 0; i < type_sets.size(); ++i) {
    const std::string query = "MATCH (a:function), (b:function) WHERE a -[:" +
                              type_sets[i] + "*]-> b RETURN a, b";
    SCOPED_TRACE(query);
    auto got = session.Run(query);
    auto expected = session.Run(query, per_row);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(OrderedRows(*got, session.database()),
              OrderedRows(*expected, session.database()));
    const uint64_t bytes =
        g.graph.view().PackedCache()->GetStats().condensation_bytes;
    if (i + 1 == graph::CsrView::kMaxCondensations) bytes_at_cap = bytes;
    if (i + 1 > graph::CsrView::kMaxCondensations) {
      EXPECT_EQ(bytes, bytes_at_cap);
    }
  }
  EXPECT_GT(bytes_at_cap, 0u);
}

// ROADMAP's SCC-finding cross product on the scale-0.02 synthetic kernel:
// every (caller, callee) pair on a common cycle. Once needed ~50M edge
// scans; on the condensation each probe is decided from component ids, so
// the whole query, the build included, stays under 1M steps.
TEST(CondensationCasesTest, SccFindingCrossProductUnderOneMillionSteps) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.02;
  extractor::GenerateKernelGraph(scale, &graph);
  Session session(graph);
  auto result = session.Run(
      "MATCH (a:function) -[:calls]-> b WITH a, b "
      "WHERE b -[:calls*]-> a RETURN count(*)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(result->stats.steps, 1000000u);

  const graph::GraphView& view = graph.view();
  const graph::TypeId calls = graph.type_id(model::EdgeKind::kCalls);
  const graph::TypeId function = graph.type_id(model::NodeKind::kFunction);
  const graph::EdgeFilter filter = graph::EdgeFilter::Of({calls});
  int64_t expected = 0;
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e)) continue;
    const graph::Edge edge = view.GetEdge(e);
    if (edge.type != calls || view.NodeType(edge.src) != function) continue;
    if (graph::IsReachable(view, edge.dst, edge.src, filter)) ++expected;
  }
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].value.AsInt(), expected);
  EXPECT_GT(expected, 0);
}

}  // namespace
}  // namespace frappe::query
