// Property-style equivalence suite for the direction-optimizing kernels:
// push-only, pull-only and the auto (hybrid) policy must produce identical
// visited sets and depths on the same graph, for every depth cutoff. The
// push kernel is the pre-direction-optimizing baseline, so these tests pin
// the bottom-up scan and the heuristic switching to the established
// semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "graph/analytics.h"
#include "graph/csr_view.h"
#include "graph/graph_store.h"
#include "graph/traversal.h"

namespace frappe::graph::analytics {
namespace {

constexpr DirectionMode kModes[] = {
    DirectionMode::kPushOnly, DirectionMode::kPullOnly, DirectionMode::kAuto};

const char* ModeName(DirectionMode mode) {
  switch (mode) {
    case DirectionMode::kPushOnly:
      return "push-only";
    case DirectionMode::kPullOnly:
      return "pull-only";
    case DirectionMode::kAuto:
      return "auto";
  }
  return "?";
}

struct RandomGraph {
  GraphStore store;
  TypeId node_type, edge_a, edge_b;
  std::vector<NodeId> nodes;
};

// Mixed-type random graph; ~1/4 of the edges are type b, so typed filters
// exercise the selectivity term of the direction cost model.
RandomGraph MakeRandomGraph(uint64_t seed, size_t node_count,
                            size_t edges_per_node) {
  RandomGraph g;
  frappe::Rng rng(seed);
  g.node_type = g.store.InternNodeType("n");
  g.edge_a = g.store.InternEdgeType("a");
  g.edge_b = g.store.InternEdgeType("b");
  for (size_t i = 0; i < node_count; ++i) {
    g.nodes.push_back(g.store.AddNode(g.node_type));
  }
  for (size_t i = 0; i < node_count * edges_per_node; ++i) {
    NodeId src = g.nodes[rng.Uniform(node_count)];
    NodeId dst = g.nodes[rng.Uniform(node_count)];
    g.store.AddEdge(src, dst, i % 4 == 0 ? g.edge_b : g.edge_a);
  }
  return g;
}

class DirectionEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirectionEquivalenceTest, ClosureIdenticalAcrossModes) {
  RandomGraph g = MakeRandomGraph(GetParam(), /*node_count=*/300,
                                  /*edges_per_node=*/5);
  CsrView csr = CsrView::Build(g.store);
  frappe::Rng rng(GetParam() ^ 0xd1c);
  for (Direction dir : {Direction::kOut, Direction::kIn, Direction::kBoth}) {
    for (const EdgeFilter& filter :
         {EdgeFilter::Of({g.edge_a}, dir), EdgeFilter::Any(dir)}) {
      std::vector<NodeId> seeds{g.nodes[rng.Uniform(g.nodes.size())],
                                g.nodes[rng.Uniform(g.nodes.size())]};
      std::vector<NodeId> expected = TransitiveClosure(g.store, seeds, filter);
      for (DirectionMode mode : kModes) {
        Options options;
        options.mode = mode;
        FrontierEngine engine;
        Metrics metrics;
        auto got = engine.Closure(csr, seeds, filter, options, &metrics);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, expected) << "mode=" << ModeName(mode)
                                  << " dir=" << static_cast<int>(dir);
        // The forced modes must actually run in their direction.
        for (uint8_t pulled : metrics.level_pull) {
          if (mode == DirectionMode::kPushOnly) {
            EXPECT_EQ(pulled, 0);
          } else if (mode == DirectionMode::kPullOnly) {
            EXPECT_EQ(pulled, 1);
          }
        }
      }
    }
  }
}

TEST_P(DirectionEquivalenceTest, DepthCutoffIdenticalAcrossModes) {
  RandomGraph g = MakeRandomGraph(GetParam() + 101, 250, 4);
  CsrView csr = CsrView::Build(g.store);
  EdgeFilter filter = EdgeFilter::Any();
  for (size_t max_depth : {1u, 2u, 4u}) {
    std::vector<NodeId> expected =
        TransitiveClosure(g.store, g.nodes[0], filter, max_depth);
    for (DirectionMode mode : kModes) {
      Options options;
      options.mode = mode;
      options.max_depth = max_depth;
      auto got = ParallelClosure(csr, {g.nodes[0]}, filter, options);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, expected) << "mode=" << ModeName(mode)
                                << " depth=" << max_depth;
    }
  }
}

TEST_P(DirectionEquivalenceTest, BfsDepthsIdenticalAcrossModes) {
  RandomGraph g = MakeRandomGraph(GetParam() + 211, 250, 4);
  CsrView csr = CsrView::Build(g.store);
  EdgeFilter filter = EdgeFilter::Of({g.edge_a, g.edge_b});
  std::vector<NodeId> seeds{g.nodes[1], g.nodes[2]};
  Options push;
  push.mode = DirectionMode::kPushOnly;
  auto baseline = ParallelBfsDepths(csr, seeds, filter, push);
  ASSERT_TRUE(baseline.ok());
  for (DirectionMode mode : {DirectionMode::kPullOnly, DirectionMode::kAuto}) {
    Options options;
    options.mode = mode;
    auto got = ParallelBfsDepths(csr, seeds, filter, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *baseline) << "mode=" << ModeName(mode);
  }
}

TEST_P(DirectionEquivalenceTest, ReachableIdenticalAcrossModes) {
  RandomGraph g = MakeRandomGraph(GetParam() + 307, 220, 4);
  CsrView csr = CsrView::Build(g.store);
  EdgeFilter filter = EdgeFilter::Of({g.edge_b}, Direction::kIn);
  std::vector<NodeId> seeds{g.nodes[3]};
  Options push;
  push.mode = DirectionMode::kPushOnly;
  auto baseline = ParallelReachable(csr, seeds, filter, push);
  ASSERT_TRUE(baseline.ok());
  for (DirectionMode mode : {DirectionMode::kPullOnly, DirectionMode::kAuto}) {
    Options options;
    options.mode = mode;
    auto got = ParallelReachable(csr, seeds, filter, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *baseline) << "mode=" << ModeName(mode);
  }
}

// A graph engineered to flip direction mid-run: a long sparse chain into a
// dense clique. The chain levels are push, the clique level should go pull
// under the auto policy; whatever it picks, results must match push-only.
TEST(DirectionSwitchTest, ChainIntoCliqueMatchesPushOnly) {
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  const size_t kChain = 8, kClique = 120;
  std::vector<NodeId> chain, clique;
  for (size_t i = 0; i < kChain; ++i) chain.push_back(store.AddNode(nt));
  for (size_t i = 0; i < kClique; ++i) clique.push_back(store.AddNode(nt));
  for (size_t i = 1; i < kChain; ++i) store.AddEdge(chain[i - 1], chain[i], et);
  for (NodeId c : clique) store.AddEdge(chain.back(), c, et);
  for (NodeId a : clique) {
    for (size_t j = 0; j < 8; ++j) {
      store.AddEdge(a, clique[(a * 13 + j * 7) % kClique], et);
    }
  }
  CsrView csr = CsrView::Build(store);
  EdgeFilter filter = EdgeFilter::Of({et});

  Options push;
  push.mode = DirectionMode::kPushOnly;
  FrontierEngine engine;
  auto expected = engine.Closure(csr, {chain[0]}, filter, push);
  ASSERT_TRUE(expected.ok());

  Options hybrid;
  hybrid.mode = DirectionMode::kAuto;
  Metrics metrics;
  auto got = engine.Closure(csr, {chain[0]}, filter, hybrid, &metrics);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *expected);
  ASSERT_EQ(metrics.level_pull.size(), metrics.levels);
  // The early chain levels (frontier of one node) must stay push — pull
  // would scan the whole universe per level.
  ASSERT_GE(metrics.levels, kChain - 1);
  EXPECT_EQ(metrics.level_pull[0], 0);
  EXPECT_EQ(metrics.level_pull[1], 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectionEquivalenceTest,
                         ::testing::Values(7, 91, 4242, 131071));

}  // namespace
}  // namespace frappe::graph::analytics
