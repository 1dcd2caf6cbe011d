#include "graph/analytics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "graph/graph_store.h"
#include "graph/traversal.h"

namespace frappe::graph::analytics {
namespace {

// ---------------------------------------------------------------------------
// VisitedBitmap
// ---------------------------------------------------------------------------

TEST(VisitedBitmapTest, SetAndTest) {
  VisitedBitmap bitmap;
  bitmap.Reset(200);
  EXPECT_FALSE(bitmap.Test(0));
  EXPECT_TRUE(bitmap.TestAndSet(0));
  EXPECT_FALSE(bitmap.TestAndSet(0));  // second set is not first
  EXPECT_TRUE(bitmap.Test(0));
  EXPECT_TRUE(bitmap.TestAndSet(199));
  EXPECT_FALSE(bitmap.Test(100));
}

TEST(VisitedBitmapTest, ResetClearsInConstantTimeViaEpoch) {
  VisitedBitmap bitmap;
  bitmap.Reset(100);
  for (NodeId id = 0; id < 100; ++id) bitmap.Set(id);
  bitmap.Reset(100);
  for (NodeId id = 0; id < 100; ++id) {
    EXPECT_FALSE(bitmap.Test(id)) << id;
  }
  // Bits set before the reset must not resurface after many epochs.
  bitmap.Set(7);
  for (int i = 0; i < 100; ++i) bitmap.Reset(100);
  EXPECT_FALSE(bitmap.Test(7));
}

TEST(VisitedBitmapTest, ResetGrowsUniverse) {
  VisitedBitmap bitmap;
  bitmap.Reset(10);
  bitmap.Set(5);
  bitmap.Reset(100000);
  EXPECT_FALSE(bitmap.Test(5));
  bitmap.Set(99999);
  EXPECT_TRUE(bitmap.Test(99999));
}

TEST(VisitedBitmapTest, AppendSetBitsSortedAscending) {
  VisitedBitmap bitmap;
  bitmap.Reset(500);
  // Deliberately out of order, crossing word boundaries (48 bits/word).
  for (NodeId id : {499u, 0u, 47u, 48u, 96u, 3u}) bitmap.Set(id);
  std::vector<NodeId> out;
  bitmap.AppendSetBits(&out);
  EXPECT_EQ(out, (std::vector<NodeId>{0, 3, 47, 48, 96, 499}));
}

TEST(VisitedBitmapTest, SurvivesEpochWraparound) {
  VisitedBitmap bitmap;
  bitmap.Reset(50);
  bitmap.Set(10);
  // Drive the 16-bit epoch all the way around; the hard clear on
  // wraparound must not let stale tags alias a fresh epoch.
  for (int i = 0; i < 70000; ++i) bitmap.Reset(50);
  EXPECT_FALSE(bitmap.Test(10));
  EXPECT_TRUE(bitmap.TestAndSet(10));
}

TEST(VisitedBitmapTest, TestAndSetStaysExactAcrossEpochWraparound) {
  // Keep bits set while the epoch wraps: right after the hard clear,
  // TestAndSet must still report first-set exactly once per id — a stale
  // tag surviving the wrap would make it report false for a clear bit (or
  // true twice).
  VisitedBitmap bitmap;
  const size_t kUniverse = 100;
  for (int round = 0; round < 70000; ++round) {
    bitmap.Reset(kUniverse);
    if (round % 9973 != 0 && round < 65540) continue;  // keep the loop fast
    EXPECT_TRUE(bitmap.TestAndSet(3)) << "round " << round;
    EXPECT_FALSE(bitmap.TestAndSet(3)) << "round " << round;
    EXPECT_TRUE(bitmap.TestAndSet(90)) << "round " << round;
    EXPECT_FALSE(bitmap.TestAndSet(90)) << "round " << round;
    EXPECT_FALSE(bitmap.Test(4)) << "round " << round;
  }
}

TEST(VisitedBitmapTest, WordPackingBoundaries) {
  // 48 payload bits per word: ids 47/48 and 95/96 straddle word borders,
  // and the last id of the universe must stay in bounds.
  VisitedBitmap bitmap;
  bitmap.Reset(97);
  EXPECT_TRUE(bitmap.TestAndSet(47));
  EXPECT_TRUE(bitmap.TestAndSet(48));
  EXPECT_FALSE(bitmap.TestAndSet(47));
  EXPECT_FALSE(bitmap.TestAndSet(48));
  EXPECT_FALSE(bitmap.Test(46));
  EXPECT_FALSE(bitmap.Test(49));
  EXPECT_TRUE(bitmap.TestAndSet(96));  // first id of the third word
  EXPECT_FALSE(bitmap.Test(95));
  std::vector<NodeId> out;
  bitmap.AppendSetBits(&out);
  EXPECT_EQ(out, (std::vector<NodeId>{47, 48, 96}));

  // A universe ending exactly on a word boundary.
  bitmap.Reset(96);
  EXPECT_TRUE(bitmap.TestAndSet(95));
  out.clear();
  bitmap.AppendSetBits(&out);
  EXPECT_EQ(out, (std::vector<NodeId>{95}));
}

TEST(VisitedBitmapTest, StaleAndFreshWordPaths) {
  VisitedBitmap bitmap;
  bitmap.Reset(100);
  EXPECT_TRUE(bitmap.TestAndSet(0));   // stale-word refresh path
  EXPECT_FALSE(bitmap.TestAndSet(0));  // already set
  EXPECT_TRUE(bitmap.TestAndSet(1));   // fresh-word set path
  bitmap.Set(2);
  EXPECT_TRUE(bitmap.Test(0));
  EXPECT_TRUE(bitmap.Test(1));
  EXPECT_TRUE(bitmap.Test(2));
  EXPECT_FALSE(bitmap.TestAndSet(2));
  bitmap.Reset(100);
  EXPECT_FALSE(bitmap.Test(0));
  EXPECT_TRUE(bitmap.TestAndSet(0));
}

TEST(VisitedBitmapTest, WordPayloadReflectsEpochAndBits) {
  VisitedBitmap bitmap;
  bitmap.Reset(96);
  EXPECT_EQ(bitmap.WordPayload(0), 0u);  // stale word reads as empty
  bitmap.Set(0);
  bitmap.Set(47);
  EXPECT_EQ(bitmap.WordPayload(13),  // any id in the first word
            (uint64_t{1} << 0) | (uint64_t{1} << 47));
  EXPECT_EQ(bitmap.WordPayload(48), 0u);
  bitmap.Reset(96);
  EXPECT_EQ(bitmap.WordPayload(0), 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the kernels agree with the store-walking traversals on
// random graphs.
// ---------------------------------------------------------------------------

struct RandomGraph {
  GraphStore store;
  TypeId node_type, edge_a, edge_b;
  std::vector<NodeId> nodes;
};

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

class DeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismTest, ClosureMatchesSequential) {
  RandomGraph g = MakeRandomGraph(GetParam(), /*node_count=*/300,
                                  /*edges_per_node=*/4);
  CsrView csr = CsrView::Build(g.store);
  frappe::Rng rng(GetParam() ^ 0x5eed);
  for (Direction dir : {Direction::kOut, Direction::kIn, Direction::kBoth}) {
    EdgeFilter filter = EdgeFilter::Of({g.edge_a}, dir);
    std::vector<NodeId> seeds{g.nodes[rng.Uniform(g.nodes.size())],
                              g.nodes[rng.Uniform(g.nodes.size())]};
    std::vector<NodeId> expected =
        TransitiveClosure(g.store, seeds, filter);
    auto got = ParallelClosure(csr, seeds, filter);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected) << "dir=" << static_cast<int>(dir);
  }
}

TEST_P(DeterminismTest, DepthLimitedClosureMatchesSequential) {
  RandomGraph g = MakeRandomGraph(GetParam() + 17, 200, 3);
  CsrView csr = CsrView::Build(g.store);
  EdgeFilter filter = EdgeFilter::Any();
  for (size_t max_depth : {1u, 2u, 5u}) {
    std::vector<NodeId> expected =
        TransitiveClosure(g.store, g.nodes[0], filter, max_depth);
    Options options;
    options.max_depth = max_depth;
    auto got = ParallelClosure(csr, {g.nodes[0]}, filter, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected) << "depth=" << max_depth;
  }
}

TEST_P(DeterminismTest, BfsDepthsMatchSequentialBfs) {
  RandomGraph g = MakeRandomGraph(GetParam() + 31, 250, 3);
  CsrView csr = CsrView::Build(g.store);
  EdgeFilter filter = EdgeFilter::Of({g.edge_a, g.edge_b});
  std::vector<NodeId> seeds{g.nodes[1]};
  std::map<NodeId, size_t> expected;
  Bfs(g.store, seeds, filter, [&](NodeId id, size_t depth) {
    expected[id] = depth;
    return true;
  });
  auto got = ParallelBfsDepths(csr, seeds, filter);
  ASSERT_TRUE(got.ok()) << got.status();
  for (NodeId id = 0; id < got->size(); ++id) {
    auto it = expected.find(id);
    if (it == expected.end()) {
      EXPECT_EQ((*got)[id], kUnreachedDepth) << "node " << id;
    } else {
      EXPECT_EQ((*got)[id], it->second) << "node " << id;
    }
  }
}

TEST_P(DeterminismTest, ReachableMatchesSequentialBfsSet) {
  RandomGraph g = MakeRandomGraph(GetParam() + 77, 250, 3);
  CsrView csr = CsrView::Build(g.store);
  EdgeFilter filter = EdgeFilter::Of({g.edge_a});
  std::vector<NodeId> seeds{g.nodes[2], g.nodes[3]};
  std::vector<NodeId> expected;
  Bfs(g.store, seeds, filter, [&](NodeId id, size_t) {
    expected.push_back(id);
    return true;
  });
  std::sort(expected.begin(), expected.end());
  auto got = ParallelReachable(csr, seeds, filter);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(11, 42, 1234, 98765));

// ---------------------------------------------------------------------------
// Engine semantics on a hand-built graph
// ---------------------------------------------------------------------------

TEST(FrontierEngineTest, SeedInClosureOnlyViaCycle) {
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  NodeId a = store.AddNode(nt), b = store.AddNode(nt),
         c = store.AddNode(nt), d = store.AddNode(nt);
  store.AddEdge(a, b, et);
  store.AddEdge(b, c, et);
  store.AddEdge(c, b, et);  // cycle b<->c, a not on it
  (void)d;
  CsrView csr = CsrView::Build(store);
  FrontierEngine engine;
  auto from_a = engine.Closure(csr, {a}, EdgeFilter::Of({et}));
  ASSERT_TRUE(from_a.ok());
  EXPECT_EQ(*from_a, (std::vector<NodeId>{b, c}));  // a not re-reached
  auto from_b = engine.Closure(csr, {b}, EdgeFilter::Of({et}));
  ASSERT_TRUE(from_b.ok());
  EXPECT_EQ(*from_b, (std::vector<NodeId>{b, c}));  // b re-reached via c
}

TEST(FrontierEngineTest, StopTargetsEndTheRunAfterTheirLevel) {
  // Chain a -> b -> c -> d: stopping on {b} ends after level 1, with b (and
  // only what level 1 reached) in the partial closure.
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  NodeId a = store.AddNode(nt), b = store.AddNode(nt),
         c = store.AddNode(nt), d = store.AddNode(nt);
  store.AddEdge(a, b, et);
  store.AddEdge(b, c, et);
  store.AddEdge(c, d, et);
  CsrView csr = CsrView::Build(store);
  FrontierEngine engine;
  const EdgeFilter filter = EdgeFilter::Of({et});
  Options options;
  std::vector<NodeId> targets{b};
  options.stop_targets = &targets;
  Metrics metrics;
  auto partial = engine.Closure(csr, {a}, filter, options, &metrics);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(*partial, (std::vector<NodeId>{b}));
  EXPECT_TRUE(metrics.stopped_early);
  EXPECT_EQ(metrics.levels, 1u);

  // A target the run never reaches leaves the closure complete.
  targets = {b, a};
  auto full = engine.Closure(csr, {a}, filter, options, &metrics);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, (std::vector<NodeId>{b, c, d}));
  EXPECT_FALSE(metrics.stopped_early);

  // A target on the deepest level still yields the whole closure.
  targets = {d};
  full = engine.Closure(csr, {a}, filter, options, &metrics);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, (std::vector<NodeId>{b, c, d}));
}

TEST(FrontierEngineTest, ScratchReuseAcrossCalls) {
  RandomGraph g = MakeRandomGraph(5, 100, 3);
  CsrView csr = CsrView::Build(g.store);
  FrontierEngine engine;
  EdgeFilter filter = EdgeFilter::Any();
  for (int round = 0; round < 5; ++round) {
    NodeId seed = g.nodes[round * 7];
    auto got = engine.Closure(csr, {seed}, filter);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, TransitiveClosure(g.store, seed, filter)) << round;
  }
}

TEST(FrontierEngineTest, MetricsReportWork) {
  RandomGraph g = MakeRandomGraph(9, 120, 4);
  CsrView csr = CsrView::Build(g.store);
  FrontierEngine engine;
  Metrics metrics;
  auto got = engine.Closure(csr, {g.nodes[0]}, EdgeFilter::Any(), {},
                            &metrics);
  ASSERT_TRUE(got.ok());
  if (!got->empty()) {
    EXPECT_GT(metrics.steps, 0u);
    EXPECT_GT(metrics.levels, 0u);
    EXPECT_GT(metrics.frontier_peak, 0u);
  }
}

TEST(FrontierEngineTest, MetricsFullyResetBetweenRuns) {
  // Regression: frontier_sizes (and the per-level direction vectors) were
  // appended to across runs when the caller reused one Metrics struct, so a
  // second traversal reported the concatenation of both frontier
  // trajectories. Every field must describe the latest run only.
  RandomGraph g = MakeRandomGraph(13, 150, 4);
  CsrView csr = CsrView::Build(g.store);
  FrontierEngine engine;
  Metrics metrics;
  auto first = engine.Closure(csr, {g.nodes[0]}, EdgeFilter::Any(), {},
                              &metrics);
  ASSERT_TRUE(first.ok());
  Metrics first_metrics = metrics;
  ASSERT_EQ(first_metrics.frontier_sizes.size(), first_metrics.levels);
  ASSERT_EQ(first_metrics.level_pull.size(), first_metrics.levels);
  ASSERT_EQ(first_metrics.level_bitmap.size(), first_metrics.levels);

  // Same query, same struct: every field must come out identical, not
  // doubled.
  auto second = engine.Closure(csr, {g.nodes[0]}, EdgeFilter::Any(), {},
                               &metrics);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(metrics.steps, first_metrics.steps);
  EXPECT_EQ(metrics.levels, first_metrics.levels);
  EXPECT_EQ(metrics.frontier_peak, first_metrics.frontier_peak);
  EXPECT_EQ(metrics.frontier_sizes, first_metrics.frontier_sizes);
  EXPECT_EQ(metrics.level_pull, first_metrics.level_pull);
  EXPECT_EQ(metrics.level_bitmap, first_metrics.level_bitmap);
  EXPECT_EQ(metrics.direction_switches, first_metrics.direction_switches);

  // A smaller follow-up query must shrink the vectors, not append to them.
  Options shallow;
  shallow.max_depth = 1;
  auto third = engine.Closure(csr, {g.nodes[0]}, EdgeFilter::Any(), shallow,
                              &metrics);
  ASSERT_TRUE(third.ok());
  EXPECT_LE(metrics.levels, 1u);
  EXPECT_EQ(metrics.frontier_sizes.size(), metrics.levels);
  EXPECT_EQ(metrics.level_pull.size(), metrics.levels);
  EXPECT_EQ(metrics.level_bitmap.size(), metrics.levels);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(CancellationTest, StepBudgetBreachReturnsResourceExhausted) {
  RandomGraph g = MakeRandomGraph(21, 400, 5);
  CsrView csr = CsrView::Build(g.store);
  Options options;
  options.max_steps = 1;  // any expansion of the first level breaches
  FrontierEngine engine;
  auto got = engine.Closure(csr, {g.nodes[0]}, EdgeFilter::Any(), options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(got.status().message().find("step budget"), std::string::npos);
}

TEST(CancellationTest, DeadlineBreachReturnsDeadlineExceeded) {
  // A long chain forces one BFS level per node: hundreds of thousands of
  // levels take well over a millisecond, so a 1ms deadline must trip.
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  const size_t kNodes = 300000;
  NodeId prev = store.AddNode(nt);
  NodeId first = prev;
  for (size_t i = 1; i < kNodes; ++i) {
    NodeId cur = store.AddNode(nt);
    store.AddEdge(prev, cur, et);
    prev = cur;
  }
  CsrView csr = CsrView::Build(store);
  Options options;
  options.deadline_ms = 1;
  FrontierEngine engine;
  auto got = engine.Closure(csr, {first}, EdgeFilter::Of({et}), options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(got.status().message().find("deadline"), std::string::npos);
}

TEST(CancellationTest, UnbudgetedRunNeverFails) {
  RandomGraph g = MakeRandomGraph(33, 200, 4);
  CsrView csr = CsrView::Build(g.store);
  FrontierEngine engine;
  auto got = engine.Closure(csr, {g.nodes[0]}, EdgeFilter::Any());
  EXPECT_TRUE(got.ok()) << got.status();
}

}  // namespace
}  // namespace frappe::graph::analytics
