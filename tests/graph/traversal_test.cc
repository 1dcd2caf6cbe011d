#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "graph/graph_store.h"

namespace frappe::graph {
namespace {

// Builds a small call-graph-like fixture:
//   a -> b -> c -> d
//   a -> c
//   d -> b   (cycle b-c-d)
//   e        (isolated)
//   a -reads-> g (different edge type)
class TraversalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    calls_ = store_.InternEdgeType("calls");
    reads_ = store_.InternEdgeType("reads");
    TypeId fn = store_.InternNodeType("function");
    for (int i = 0; i < 6; ++i) n_.push_back(store_.AddNode(fn));
    store_.AddEdge(n_[0], n_[1], calls_);  // a->b
    store_.AddEdge(n_[1], n_[2], calls_);  // b->c
    store_.AddEdge(n_[2], n_[3], calls_);  // c->d
    store_.AddEdge(n_[0], n_[2], calls_);  // a->c
    store_.AddEdge(n_[3], n_[1], calls_);  // d->b
    store_.AddEdge(n_[0], n_[5], reads_);  // a-reads->g
  }

  GraphStore store_;
  TypeId calls_, reads_;
  std::vector<NodeId> n_;
};

TEST_F(TraversalTest, BfsVisitsInDepthOrder) {
  std::vector<std::pair<NodeId, size_t>> visits;
  Bfs(store_, {n_[0]}, EdgeFilter::Of({calls_}),
      [&](NodeId id, size_t depth) {
        visits.emplace_back(id, depth);
        return true;
      });
  ASSERT_EQ(visits.size(), 4u);
  EXPECT_EQ(visits[0], (std::pair<NodeId, size_t>{n_[0], 0}));
  // b and c both at depth 1, d at depth 2.
  std::set<NodeId> depth1{visits[1].first, visits[2].first};
  EXPECT_EQ(depth1, (std::set<NodeId>{n_[1], n_[2]}));
  EXPECT_EQ(visits[3], (std::pair<NodeId, size_t>{n_[3], 2}));
}

TEST_F(TraversalTest, BfsRespectsEdgeTypeFilter) {
  std::vector<NodeId> visited;
  Bfs(store_, {n_[0]}, EdgeFilter::Of({reads_}), [&](NodeId id, size_t) {
    visited.push_back(id);
    return true;
  });
  EXPECT_EQ(visited, (std::vector<NodeId>{n_[0], n_[5]}));
}

TEST_F(TraversalTest, BfsAnyEdgeType) {
  std::vector<NodeId> visited;
  Bfs(store_, {n_[0]}, EdgeFilter::Any(), [&](NodeId id, size_t) {
    visited.push_back(id);
    return true;
  });
  EXPECT_EQ(visited.size(), 5u);  // everything except isolated e
}

TEST_F(TraversalTest, BfsMaxDepth) {
  std::vector<NodeId> visited;
  Bfs(
      store_, {n_[0]}, EdgeFilter::Of({calls_}),
      [&](NodeId id, size_t) {
        visited.push_back(id);
        return true;
      },
      /*max_depth=*/1);
  EXPECT_EQ(visited.size(), 3u);  // a, b, c — not d
}

TEST_F(TraversalTest, BfsEarlyStop) {
  int visits = 0;
  Bfs(store_, {n_[0]}, EdgeFilter::Of({calls_}), [&](NodeId, size_t) {
    return ++visits < 2;
  });
  EXPECT_EQ(visits, 2);
}

TEST_F(TraversalTest, BfsIgnoresDeadSeeds) {
  store_.RemoveNode(n_[5]);
  std::vector<NodeId> visited;
  Bfs(store_, {n_[5]}, EdgeFilter::Any(), [&](NodeId id, size_t) {
    visited.push_back(id);
    return true;
  });
  EXPECT_TRUE(visited.empty());
}

TEST_F(TraversalTest, TransitiveClosureExcludesUnreachedSeed) {
  // Figure 6 semantics: closure of outgoing calls from a.
  auto closure = TransitiveClosure(store_, n_[0], EdgeFilter::Of({calls_}));
  EXPECT_EQ(closure, (std::vector<NodeId>{n_[1], n_[2], n_[3]}));
}

TEST_F(TraversalTest, TransitiveClosureIncludesSeedOnCycle) {
  auto closure = TransitiveClosure(store_, n_[1], EdgeFilter::Of({calls_}));
  // b -> c -> d -> b: the cycle brings b into its own closure.
  EXPECT_EQ(closure, (std::vector<NodeId>{n_[1], n_[2], n_[3]}));
}

TEST_F(TraversalTest, TransitiveClosureIncomingIsForwardSlice) {
  auto closure =
      TransitiveClosure(store_, n_[3], EdgeFilter::Of({calls_}, Direction::kIn));
  // Callers of d transitively: c, b, a, and d itself via the cycle.
  EXPECT_EQ(closure, (std::vector<NodeId>{n_[0], n_[1], n_[2], n_[3]}));
}

TEST_F(TraversalTest, TransitiveClosureDepthLimited) {
  auto closure =
      TransitiveClosure(store_, n_[0], EdgeFilter::Of({calls_}), 1);
  EXPECT_EQ(closure, (std::vector<NodeId>{n_[1], n_[2]}));
}

TEST_F(TraversalTest, TransitiveClosureMultiSeed) {
  auto closure = TransitiveClosure(store_, std::vector<NodeId>{n_[2], n_[5]},
                                   EdgeFilter::Of({calls_}));
  EXPECT_EQ(closure, (std::vector<NodeId>{n_[1], n_[2], n_[3]}));
}

TEST_F(TraversalTest, ShortestPathDirect) {
  auto path = ShortestPath(store_, n_[0], n_[3], EdgeFilter::Of({calls_}));
  ASSERT_TRUE(path.has_value());
  // a -> c -> d beats a -> b -> c -> d.
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{n_[0], n_[2], n_[3]}));
  EXPECT_EQ(path->edges.size(), 2u);
  // Edge endpoints line up with the node sequence.
  for (size_t i = 0; i < path->edges.size(); ++i) {
    Edge e = store_.GetEdge(path->edges[i]);
    EXPECT_EQ(e.src, path->nodes[i]);
    EXPECT_EQ(e.dst, path->nodes[i + 1]);
  }
}

TEST_F(TraversalTest, ShortestPathToSelfIsEmpty) {
  auto path = ShortestPath(store_, n_[0], n_[0], EdgeFilter::Of({calls_}));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, std::vector<NodeId>{n_[0]});
  EXPECT_TRUE(path->edges.empty());
}

TEST_F(TraversalTest, ShortestPathUnreachable) {
  EXPECT_FALSE(
      ShortestPath(store_, n_[0], n_[4], EdgeFilter::Any()).has_value());
  // Wrong direction: nothing calls a.
  EXPECT_FALSE(
      ShortestPath(store_, n_[1], n_[0], EdgeFilter::Of({calls_})).has_value());
}

TEST_F(TraversalTest, IsReachable) {
  EXPECT_TRUE(IsReachable(store_, n_[0], n_[3], EdgeFilter::Of({calls_})));
  EXPECT_FALSE(IsReachable(store_, n_[3], n_[0], EdgeFilter::Of({calls_})));
  EXPECT_TRUE(IsReachable(store_, n_[0], n_[0], EdgeFilter::Of({calls_})));
  EXPECT_FALSE(IsReachable(store_, n_[0], n_[4], EdgeFilter::Any()));
  EXPECT_FALSE(IsReachable(store_, n_[0], n_[3], EdgeFilter::Of({calls_}), 1));
}

// Property test: TransitiveClosure agrees with a reference reachability
// computation on random graphs.
class ClosureReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosureReferenceTest, MatchesNaiveReachability) {
  frappe::Rng rng(GetParam());
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  const size_t kNodes = 40;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < kNodes; ++i) nodes.push_back(store.AddNode(nt));
  // ~3 random edges per node; self-loops and duplicates allowed.
  std::vector<std::pair<NodeId, NodeId>> edge_list;
  for (size_t i = 0; i < kNodes * 3; ++i) {
    NodeId src = nodes[rng.Uniform(kNodes)];
    NodeId dst = nodes[rng.Uniform(kNodes)];
    store.AddEdge(src, dst, et);
    edge_list.emplace_back(src, dst);
  }

  // Reference: iterative frontier expansion on the edge list.
  NodeId seed = nodes[rng.Uniform(kNodes)];
  std::unordered_set<NodeId> reached;
  std::vector<NodeId> frontier{seed};
  bool first = true;
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (NodeId f : frontier) {
      for (auto [src, dst] : edge_list) {
        if (src == f && !reached.count(dst)) {
          reached.insert(dst);
          next.push_back(dst);
        }
      }
    }
    if (first) first = false;
    frontier = std::move(next);
  }

  std::vector<NodeId> expected(reached.begin(), reached.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(TransitiveClosure(store, seed, EdgeFilter::Of({et})), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureReferenceTest,
                         ::testing::Range(uint64_t{100}, uint64_t{110}));

}  // namespace
}  // namespace frappe::graph
