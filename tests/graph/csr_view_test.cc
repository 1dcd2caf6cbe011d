#include "graph/csr_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/analytics.h"
#include "graph/graph_store.h"
#include "graph/stats.h"
#include "graph/traversal.h"
#include "tests/graph/chain_into_clique.h"

namespace frappe::graph {
namespace {

TEST(CsrViewTest, EmptyGraph) {
  GraphStore store;
  CsrView view = CsrView::Build(store);
  EXPECT_EQ(view.NodeCount(), 0u);
  EXPECT_EQ(view.EdgeCount(), 0u);
}

TEST(CsrViewTest, AdjacencyMatchesStore) {
  GraphStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  NodeId c = store.AddNode("n");
  EdgeId ab = store.AddEdge(a, b, "e");
  EdgeId ac = store.AddEdge(a, c, "e");
  EdgeId cb = store.AddEdge(c, b, "e");
  CsrView view = CsrView::Build(store);

  EXPECT_EQ(view.OutDegree(a), 2u);
  EXPECT_EQ(view.InDegree(b), 2u);
  std::set<EdgeId> out_edges;
  view.ForEachEdge(a, Direction::kOut, [&](EdgeId e, NodeId) {
    out_edges.insert(e);
    return true;
  });
  EXPECT_EQ(out_edges, (std::set<EdgeId>{ab, ac}));
  std::set<EdgeId> in_edges;
  view.ForEachEdge(b, Direction::kIn, [&](EdgeId e, NodeId) {
    in_edges.insert(e);
    return true;
  });
  EXPECT_EQ(in_edges, (std::set<EdgeId>{ab, cb}));
  Edge edge = view.GetEdge(cb);
  EXPECT_EQ(edge.src, c);
  EXPECT_EQ(edge.dst, b);
}

TEST(CsrViewTest, SelfLoopReportedOnceInBoth) {
  GraphStore store;
  NodeId a = store.AddNode("n");
  store.AddEdge(a, a, "e");
  CsrView view = CsrView::Build(store);
  int count = 0;
  view.ForEachEdge(a, Direction::kBoth, [&](EdgeId, NodeId) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(view.Degree(a), 2u);
}

TEST(CsrViewTest, DeadEdgesExcluded) {
  GraphStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  EdgeId e1 = store.AddEdge(a, b, "e");
  store.AddEdge(a, b, "e");
  store.RemoveEdge(e1);
  CsrView view = CsrView::Build(store);
  EXPECT_EQ(view.OutDegree(a), 1u);
  EXPECT_EQ(view.LiveEdgeCount(), 1u);
  EXPECT_FALSE(view.EdgeExists(e1));
}

TEST(CsrViewTest, PropertiesDelegateToBase) {
  GraphStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  EdgeId e = store.AddEdge(a, b, "e");
  store.SetNodeProperty(a, "short_name", store.StringValue("alpha"));
  store.SetEdgeProperty(e, "line", Value::Int(7));
  CsrView view = CsrView::Build(store);
  EXPECT_EQ(view.GetNodeString(a, store.keys().Find("short_name")), "alpha");
  EXPECT_EQ(view.GetEdgeProperty(e, store.keys().Find("line")).AsInt(), 7);
}

TEST(CsrViewTest, PackedAccessorsMatchCallbacks) {
  GraphStore store;
  NodeId a = store.AddNode("n");
  for (int i = 0; i < 5; ++i) store.AddEdge(a, store.AddNode("n"), "e");
  CsrView view = CsrView::Build(store);
  CsrView::Neighbors out = view.Out(a);
  EXPECT_EQ(out.count, 5u);
  size_t i = 0;
  view.ForEachEdge(a, Direction::kOut, [&](EdgeId e, NodeId n) {
    EXPECT_EQ(out.begin_edges[i], e);
    EXPECT_EQ(out.begin_nodes[i], n);
    ++i;
    return true;
  });
}

TEST(CsrViewTest, ReverseCsrBuildsLazily) {
  GraphStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  NodeId c = store.AddNode("n");
  store.AddEdge(a, b, "e");
  store.AddEdge(c, b, "e");
  CsrView view = CsrView::Build(store);

  // Forward-only use keeps the transpose unbuilt and free.
  EXPECT_FALSE(view.ReverseBuilt());
  EXPECT_EQ(view.ReverseByteSize(), 0u);
  EXPECT_EQ(view.ReverseBuildMs(), 0.0);
  EXPECT_GT(view.ForwardByteSize(), 0u);
  EXPECT_EQ(view.OutDegree(a), 1u);
  EXPECT_FALSE(view.ReverseBuilt());

  // First in-direction access materializes it.
  EXPECT_EQ(view.InDegree(b), 2u);
  EXPECT_TRUE(view.ReverseBuilt());
  EXPECT_GT(view.ReverseByteSize(), 0u);
  EXPECT_EQ(view.ByteSize(),
            view.ForwardByteSize() + view.ReverseByteSize());

  // An out-direction kernel closure reads forward edges only, also on a graph
  // whose last level reaches a dense clique.
  testing::ChainIntoClique g = testing::MakeChainIntoClique();
  EdgeFilter out = EdgeFilter::Of({g.edge_type}, Direction::kOut);
  analytics::FrontierEngine engine;
  CsrView csr = CsrView::Build(g.store);
  ASSERT_TRUE(engine.Closure(csr, {g.chain[0]}, out).ok());
  EXPECT_FALSE(csr.ReverseBuilt());
  EXPECT_EQ(csr.ReverseByteSize(), 0u);
}

// --- The view's own packed adjacency (GraphView::Packed / CsrCache) ---

TEST(CsrCacheTest, PackedIsBuiltOnceAndRebuiltAfterMutation) {
  GraphStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  store.AddEdge(a, b, "e");
  EXPECT_EQ(store.PackedCache()->GetStats().forward_bytes, 0u);
  const CsrView& first = store.Packed();
  EXPECT_EQ(&store.Packed(), &first);
  EXPECT_EQ(&store.PackedCache()->Get(store), &first);
  EXPECT_EQ(store.PackedCache()->GetStats().forward_bytes,
            first.ForwardByteSize());

  // A node past the built offsets and an edge into it.
  NodeId c = store.AddNode("n");
  store.AddEdge(b, c, "e");
  const CsrView& second = store.Packed();
  EXPECT_EQ(second.OutDegree(b), 1u);
  EXPECT_EQ(second.Out(b).begin_nodes[0], c);
  EXPECT_EQ(second.InDegree(c), 1u);

  store.RemoveEdge(second.Out(b).begin_edges[0]);
  EXPECT_EQ(store.Packed().OutDegree(b), 0u);
}

TEST(CsrCacheTest, ForeignBaseDoesNotFreeTheOwnersView) {
  GraphStore owner;
  owner.AddEdge(owner.AddNode("n"), owner.AddNode("n"), "e");
  GraphStore other;
  other.AddNode("n");
  const CsrView& mine = owner.Packed();
  CsrCache& cache = *owner.PackedCache();
  // The foreign base gets its own view's CSR; the owner's stays put.
  EXPECT_EQ(&cache.Get(other), &other.Packed());
  EXPECT_EQ(&cache.Get(owner), &mine);
  EXPECT_EQ(mine.LiveEdgeCount(), 1u);
  EXPECT_EQ(cache.GetStats().forward_bytes, mine.ForwardByteSize());
}

TEST(CsrCacheTest, MovesStartEmptyAndAssignmentEmptiesTheTarget) {
  GraphStore store;
  store.AddEdge(store.AddNode("n"), store.AddNode("n"), "e");
  store.Packed();
  std::shared_ptr<CsrCache> source_cache = store.PackedCache();
  GraphStore moved = std::move(store);
  EXPECT_NE(moved.PackedCache(), source_cache);
  EXPECT_EQ(moved.PackedCache()->GetStats().forward_bytes, 0u);
  EXPECT_EQ(moved.Packed().LiveEdgeCount(), 1u);

  std::shared_ptr<CsrCache> target_cache = moved.PackedCache();
  GraphStore empty;
  moved = std::move(empty);
  // Same cache object (a Database may share it), emptied.
  EXPECT_EQ(moved.PackedCache(), target_cache);
  EXPECT_EQ(target_cache->GetStats().forward_bytes, 0u);
  EXPECT_EQ(moved.Packed().LiveEdgeCount(), 0u);
}

TEST(CsrViewTest, ReverseBucketsSortedBySourceWithMatchingTypes) {
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId e1 = store.InternEdgeType("e1");
  TypeId e2 = store.InternEdgeType("e2");
  const NodeId kTarget = 0;
  store.AddNode(nt);  // kTarget
  // Edges into kTarget inserted from high source ids first: the transpose
  // must still list sources ascending (built in forward-CSR order).
  std::vector<NodeId> sources;
  for (int i = 0; i < 20; ++i) sources.push_back(store.AddNode(nt));
  for (auto it = sources.rbegin(); it != sources.rend(); ++it) {
    store.AddEdge(*it, kTarget, (*it % 2) == 0 ? e1 : e2);
  }
  CsrView view = CsrView::Build(store);
  CsrView::Neighbors in = view.In(kTarget);
  ASSERT_EQ(in.count, sources.size());
  for (size_t i = 0; i < in.count; ++i) {
    if (i > 0) {
      EXPECT_LT(in.begin_nodes[i - 1], in.begin_nodes[i]);
    }
    // The packed type lane is the edge's type, in both directions.
    EXPECT_EQ(in.begin_types[i], view.GetEdge(in.begin_edges[i]).type);
    EXPECT_EQ(view.GetEdge(in.begin_edges[i]).src, in.begin_nodes[i]);
  }
  CsrView::Neighbors out = view.Out(sources[0]);
  ASSERT_EQ(out.count, 1u);
  EXPECT_EQ(out.begin_types[0], view.GetEdge(out.begin_edges[0]).type);
}

// --- Condensation (built by analytics::Condense, cached on the view) ---

TEST(CsrCacheTest, CondensationBytesCountOnceBuiltPerTypeSet) {
  GraphStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  NodeId c = store.AddNode("n");
  store.AddEdge(a, b, "e");
  store.AddEdge(b, a, "e");
  store.AddEdge(b, c, "e");
  store.AddEdge(c, c, "f");
  const TypeId e = store.edge_types().Find("e");
  const CsrView& csr = store.Packed();
  EXPECT_EQ(store.PackedCache()->GetStats().condensation_bytes, 0u);

  analytics::Metrics metrics;
  auto by_e = analytics::Condense(csr, {e}, {}, &metrics);
  ASSERT_TRUE(by_e.ok()) << by_e.status();
  const Condensation& cond = **by_e;
  // Tarjan order: {c} completes first, then {a, b}.
  EXPECT_EQ(cond.ComponentCount(), 2u);
  EXPECT_EQ(cond.component[a], cond.component[b]);
  EXPECT_EQ(cond.component[c], 0u);
  EXPECT_EQ(cond.component[a], 1u);
  EXPECT_EQ(cond.cyclic, (std::vector<uint8_t>{0, 1}));  // `f` loop ignored
  EXPECT_EQ(cond.out, (std::vector<uint32_t>{0}));
  EXPECT_EQ(cond.in, (std::vector<uint32_t>{1}));
  EXPECT_EQ(cond.members, (std::vector<NodeId>{c, a, b}));
  // Every live edge twice.
  EXPECT_EQ(metrics.steps, 2 * csr.LiveEdgeCount());
  EXPECT_EQ(analytics::FindCondensation(csr, {e}), &cond);
  EXPECT_GT(cond.ByteSize(), 0u);
  EXPECT_EQ(store.PackedCache()->GetStats().condensation_bytes,
            cond.ByteSize());

  // The same type set, in any order and with repeats, is not rebuilt.
  auto again = analytics::Condense(csr, {e, e}, {}, &metrics);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *by_e);
  EXPECT_EQ(metrics.steps, 0u);

  // Another type set is its own condensation: every type makes {c} cyclic.
  EXPECT_EQ(analytics::FindCondensation(csr, {}), nullptr);
  auto any = analytics::Condense(csr, {});
  ASSERT_TRUE(any.ok());
  EXPECT_NE(*any, *by_e);
  EXPECT_EQ((*any)->cyclic[(*any)->component[c]], 1u);
  EXPECT_EQ(store.PackedCache()->GetStats().condensation_bytes,
            cond.ByteSize() + (*any)->ByteSize());

  // A mutation rebuilds the view, which starts without one.
  store.AddEdge(c, a, "e");
  store.Packed();
  EXPECT_EQ(store.PackedCache()->GetStats().condensation_bytes, 0u);
}

// Type sets come from query text, so a view keeps a condensation for the
// first kMaxCondensations sets asked for only: any other set builds
// nothing and its bytes never count.
TEST(CsrCacheTest, CondensationsAreCappedPerView) {
  GraphStore store;
  std::vector<TypeId> types;
  NodeId prev = store.AddNode("n");
  for (int i = 0; i < 12; ++i) {
    NodeId next = store.AddNode("n");
    store.AddEdge(prev, next, "t" + std::to_string(i));
    store.AddEdge(next, prev, "t" + std::to_string(i));
    types.push_back(store.edge_types().Find("t" + std::to_string(i)));
    prev = next;
  }
  const CsrView& csr = store.Packed();
  uint64_t capped_bytes = 0;
  for (size_t i = 0; i < types.size(); ++i) {
    analytics::Metrics metrics;
    auto built = analytics::Condense(csr, {types[i]}, {}, &metrics);
    ASSERT_TRUE(built.ok()) << built.status();
    const uint64_t bytes = store.PackedCache()->GetStats().condensation_bytes;
    if (i < CsrView::kMaxCondensations) {
      ASSERT_NE(*built, nullptr);
      EXPECT_EQ(metrics.steps, 2 * csr.LiveEdgeCount());
      EXPECT_GT(bytes, capped_bytes);
      capped_bytes = bytes;
    } else {
      EXPECT_EQ(*built, nullptr);
      EXPECT_EQ(metrics.steps, 0u);
      EXPECT_EQ(analytics::FindCondensation(csr, {types[i]}), nullptr);
      EXPECT_EQ(bytes, capped_bytes);
    }
  }
  // The sets that hold a slot are still answered.
  auto first = analytics::Condense(csr, {types[0]});
  ASSERT_TRUE(first.ok());
  EXPECT_NE(*first, nullptr);

  // A topology change frees every slot.
  store.AddEdge(0, 1, "t11");
  auto last = analytics::Condense(store.Packed(), {types[11]});
  ASSERT_TRUE(last.ok());
  EXPECT_NE(*last, nullptr);
}

// Property sweep: traversal over a CSR view agrees with the store.
class CsrRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrRandomTest, ClosureAndMetricsAgreeWithStore) {
  frappe::Rng rng(GetParam());
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  const size_t kNodes = 60;
  for (size_t i = 0; i < kNodes; ++i) store.AddNode(nt);
  for (size_t i = 0; i < kNodes * 3; ++i) {
    store.AddEdge(static_cast<NodeId>(rng.Uniform(kNodes)),
                  static_cast<NodeId>(rng.Uniform(kNodes)), et);
  }
  // Some deletions to create holes.
  for (int i = 0; i < 6; ++i) {
    store.RemoveEdge(static_cast<EdgeId>(rng.Uniform(kNodes * 3)));
  }
  CsrView view = CsrView::Build(store);

  auto store_metrics = ComputeMetrics(store);
  auto csr_metrics = ComputeMetrics(view);
  EXPECT_EQ(store_metrics.node_count, csr_metrics.node_count);
  EXPECT_EQ(store_metrics.edge_count, csr_metrics.edge_count);

  NodeId seed = static_cast<NodeId>(rng.Uniform(kNodes));
  for (Direction dir : {Direction::kOut, Direction::kIn}) {
    auto a = TransitiveClosure(store, seed, EdgeFilter::Of({et}, dir));
    auto b = TransitiveClosure(view, seed, EdgeFilter::Of({et}, dir));
    EXPECT_EQ(a, b);
  }
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_EQ(store.OutDegree(n), view.OutDegree(n)) << n;
    EXPECT_EQ(store.InDegree(n), view.InDegree(n)) << n;
  }
}

// Two nodes share a component exactly when each reaches the other, every
// edge between components descends in id, and the DAG holds exactly the
// component pairs those edges link.
TEST_P(CsrRandomTest, CondensationMatchesMutualReachability) {
  frappe::Rng rng(GetParam());
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  TypeId other = store.InternEdgeType("other");
  const size_t kNodes = 40;
  for (size_t i = 0; i < kNodes; ++i) store.AddNode(nt);
  for (size_t i = 0; i < kNodes * 2; ++i) {
    store.AddEdge(static_cast<NodeId>(rng.Uniform(kNodes)),
                  static_cast<NodeId>(rng.Uniform(kNodes)),
                  rng.Uniform(3) == 0 ? other : et);
  }
  const CsrView& csr = store.Packed();
  auto built = analytics::Condense(csr, {et});
  ASSERT_TRUE(built.ok()) << built.status();
  const Condensation& cond = **built;
  const EdgeFilter filter = EdgeFilter::Of({et});
  std::set<std::pair<uint32_t, uint32_t>> linked;
  for (NodeId u = 0; u < kNodes; ++u) {
    auto closure = TransitiveClosure(store, u, filter);
    std::set<NodeId> reach(closure.begin(), closure.end());
    EXPECT_EQ(cond.cyclic[cond.component[u]] != 0, reach.count(u) == 1) << u;
    for (NodeId v = 0; v < kNodes; ++v) {
      bool mutual = u == v || (reach.count(v) != 0 &&
                               IsReachable(store, v, u, filter));
      EXPECT_EQ(cond.component[u] == cond.component[v], mutual) << u << v;
    }
    CsrView::Neighbors out = csr.Out(u);
    for (size_t j = 0; j < out.count; ++j) {
      if (out.begin_types[j] != et) continue;
      uint32_t from = cond.component[u];
      uint32_t to = cond.component[out.begin_nodes[j]];
      EXPECT_GE(from, to);
      if (from != to) linked.insert({from, to});
    }
  }
  std::set<std::pair<uint32_t, uint32_t>> dag, reverse;
  for (uint32_t c = 0; c < cond.ComponentCount(); ++c) {
    for (uint64_t i = cond.out_offsets[c]; i < cond.out_offsets[c + 1]; ++i) {
      dag.insert({c, cond.out[i]});
    }
    for (uint64_t i = cond.in_offsets[c]; i < cond.in_offsets[c + 1]; ++i) {
      reverse.insert({cond.in[i], c});
    }
    for (uint64_t m = cond.member_offsets[c]; m < cond.member_offsets[c + 1];
         ++m) {
      EXPECT_EQ(cond.component[cond.members[m]], c);
    }
  }
  EXPECT_EQ(dag, linked);
  EXPECT_EQ(reverse, linked);
  EXPECT_EQ(cond.members.size(), kNodes);
}

// Multi-seed closures on the condensation of a graph shaped like the
// call graph: an acyclic head calling into a giant SCC that calls into an
// acyclic tail. They equal the kernel's and the store walk's in both
// directions, for seed lists with duplicates, dead ids, ids past the view,
// and a seed whose singleton component another seed reaches (it is in the
// closure though its search starts there).
TEST_P(CsrRandomTest, MultiSeedCondensedClosureMatchesKernelAndStore) {
  frappe::Rng rng(GetParam());
  GraphStore store;
  TypeId nt = store.InternNodeType("n");
  TypeId et = store.InternEdgeType("e");
  TypeId other = store.InternEdgeType("other");
  const NodeId kCore = 20;  // head [0, 20), core [20, 40), tail [40, 60)
  const NodeId kTail = 40;
  const NodeId kNodes = 60;
  for (NodeId i = 0; i < kNodes; ++i) store.AddNode(nt);
  auto pick = [&](NodeId lo, NodeId hi) {
    return static_cast<NodeId>(lo + rng.Uniform(hi - lo));
  };
  for (NodeId i = kCore; i < kTail; ++i) {  // a ring, then chords
    store.AddEdge(i, i + 1 < kTail ? i + 1 : kCore, et);
    store.AddEdge(i, pick(kCore, kTail), et);
    store.AddEdge(i, pick(kCore, kNodes), rng.Uniform(3) == 0 ? other : et);
  }
  for (NodeId i = 0; i < kCore; ++i) {
    store.AddEdge(i, pick(i + 1, kTail), et);
    store.AddEdge(i, pick(0, kNodes), other);
  }
  for (NodeId i = kTail; i + 1 < kNodes; ++i) {
    store.AddEdge(i, pick(i + 1, kNodes), et);
  }
  // The two singleton components one seed reaches from another.
  store.AddEdge(0, 1, et);
  store.AddEdge(kTail, kTail + 1, et);
  const NodeId dead_head = pick(2, kCore);
  const NodeId dead_core = pick(kCore, kTail);
  store.RemoveNode(dead_head);
  store.RemoveNode(dead_core);

  const CsrView& csr = store.Packed();
  auto built = analytics::Condense(csr, {et});
  ASSERT_TRUE(built.ok()) << built.status();
  const Condensation& cond = **built;
  ASSERT_EQ(cond.cyclic[cond.component[1]], 0u);
  ASSERT_EQ(cond.cyclic[cond.component[kTail]], 0u);

  const std::vector<std::vector<NodeId>> seed_lists = {
      {0, 1},
      {kTail + 1, kTail},
      {1, 0, 1, kCore + 3, kCore + 3, 0},
      {dead_head, dead_core, pick(0, kCore), pick(kTail, kNodes)},
      {kNodes, kNodes + 7, kInvalidNode, pick(0, kNodes)},
      {dead_head},
      {},
      {pick(0, kNodes), pick(0, kNodes), pick(0, kNodes), pick(0, kNodes)},
  };
  analytics::FrontierEngine engine;
  for (Direction dir : {Direction::kOut, Direction::kIn}) {
    const EdgeFilter filter = EdgeFilter::Of({et}, dir);
    for (const std::vector<NodeId>& seeds : seed_lists) {
      auto condensed = analytics::CondensedClosure(cond, seeds, dir);
      auto kernel = engine.Closure(csr, seeds, filter);
      ASSERT_TRUE(condensed.ok()) << condensed.status();
      ASSERT_TRUE(kernel.ok()) << kernel.status();
      const std::vector<NodeId> walked =
          TransitiveClosure(store, seeds, filter);
      EXPECT_EQ(*condensed, *kernel) << static_cast<int>(dir);
      EXPECT_EQ(*condensed, walked) << static_cast<int>(dir);
    }
  }
  // The reached seed is in, the starting one only through a cycle.
  auto forward = analytics::CondensedClosure(cond, {1, 0}, Direction::kOut);
  ASSERT_TRUE(forward.ok());
  EXPECT_TRUE(std::binary_search(forward->begin(), forward->end(), 1));
  EXPECT_FALSE(std::binary_search(forward->begin(), forward->end(), 0));
  auto backward = analytics::CondensedClosure(cond, {kTail, kTail + 1},
                                              Direction::kIn);
  ASSERT_TRUE(backward.ok());
  EXPECT_TRUE(
      std::binary_search(backward->begin(), backward->end(), kTail));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrRandomTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace frappe::graph
