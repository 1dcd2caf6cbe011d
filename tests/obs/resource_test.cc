// Per-query resource accounting (obs/resource.h): the allocation seam's
// exactness under concurrency, peak/live byte tracking, CPU attribution
// across analytics lanes, memory-budget enforcement through the executor,
// and the plumbing into ExecStats and the per-fingerprint stats table.
//
// Runs under TSan via the `parallel` label (the tracker is charged from
// every pool lane concurrently) and under ASan via `storage` (the
// operator new/delete replacements must keep the sanitizer's allocator
// interceptors in the loop).

#include "obs/resource.h"

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "extractor/synthetic.h"
#include "gtest/gtest.h"
#include "model/code_graph.h"
#include "obs/fingerprint.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::obs {
namespace {

TEST(ResourceTrackerTest, CountsAllocationsAndFrees) {
  ResourceTracker tracker;
  {
    ResourceScope scope(&tracker);
    char* p = new char[4096];
    // The compiler cannot elide a new/delete pair separated by a store
    // through a volatile.
    *static_cast<volatile char*>(p) = 1;
    delete[] p;
  }
  EXPECT_GE(tracker.alloc_count(), 1u);
  EXPECT_GE(tracker.alloc_bytes(), 4096u);
  EXPECT_EQ(tracker.alloc_bytes(), tracker.freed_bytes());
  EXPECT_EQ(tracker.live_bytes(), 0);
  EXPECT_GE(tracker.peak_bytes(), 4096u);
}

TEST(ResourceTrackerTest, PeakHoldsTheHighWaterMark) {
  ResourceTracker tracker;
  {
    ResourceScope scope(&tracker);
    char* big = new char[1 << 20];
    *static_cast<volatile char*>(big) = 1;
    delete[] big;
    char* small = new char[64];
    *static_cast<volatile char*>(small) = 1;
    delete[] small;
  }
  EXPECT_GE(tracker.peak_bytes(), 1u << 20);
  EXPECT_EQ(tracker.live_bytes(), 0);
}

TEST(ResourceTrackerTest, KillSwitchDisablesInstallation) {
  ResourceTracker tracker;
  ResourceTracker::SetEnabled(false);
  {
    ResourceScope scope(&tracker);
    EXPECT_EQ(ResourceTracker::Current(), nullptr);
    char* p = new char[2048];
    *static_cast<volatile char*>(p) = 1;
    delete[] p;
  }
  ResourceTracker::SetEnabled(true);
  EXPECT_EQ(tracker.alloc_count(), 0u);
  EXPECT_EQ(tracker.alloc_bytes(), 0u);
}

// The chaos-exactness bar: 16 threads charging one tracker concurrently
// lose no updates. Each thread performs exactly kAllocs array-new/delete
// pairs inside its scope and nothing else, so the totals are exact, not
// lower bounds.
TEST(ResourceTrackerTest, ExactAccountingAcrossSixteenThreads) {
  constexpr int kThreads = 16;
  constexpr int kAllocs = 1000;
  constexpr size_t kSize = 1024;
  ResourceTracker tracker;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker] {
      ResourceScope scope(&tracker);
      for (int i = 0; i < kAllocs; ++i) {
        char* p = new char[kSize];
        *static_cast<volatile char*>(p) = 1;
        delete[] p;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracker.alloc_count(),
            static_cast<uint64_t>(kThreads) * kAllocs);
  EXPECT_GE(tracker.alloc_bytes(),
            static_cast<uint64_t>(kThreads) * kAllocs * kSize);
  EXPECT_EQ(tracker.alloc_bytes(), tracker.freed_bytes());
  EXPECT_EQ(tracker.live_bytes(), 0);
  EXPECT_GT(tracker.cpu_us(), 0u);  // each scope exit flushed thread CPU
}

TEST(ResourceTrackerTest, ScopesNestAndRestore) {
  ResourceTracker outer_tracker;
  ResourceTracker inner_tracker;
  {
    ResourceScope outer(&outer_tracker);
    EXPECT_EQ(ResourceTracker::Current(), &outer_tracker);
    {
      ResourceScope inner(&inner_tracker);
      EXPECT_EQ(ResourceTracker::Current(), &inner_tracker);
    }
    EXPECT_EQ(ResourceTracker::Current(), &outer_tracker);
  }
  EXPECT_EQ(ResourceTracker::Current(), nullptr);
}

TEST(ResourceTrackerTest, OverBudgetComparesLiveBytes) {
  ResourceTracker tracker;
  tracker.set_budget_bytes(1024);
  EXPECT_FALSE(tracker.OverBudget());
  {
    ResourceScope scope(&tracker);
    char* p = new char[8192];
    *static_cast<volatile char*>(p) = 1;
    EXPECT_TRUE(tracker.OverBudget());
    delete[] p;
  }
  EXPECT_FALSE(tracker.OverBudget());
}

// Query-level integration on the paper fixture: every /query response
// field the session fills from the tracker is populated, and the
// fingerprint stats table aggregates them.
TEST(ResourceQueryTest, RunQueryFillsResourceStats) {
  query::testing::PaperFixture fixture;
  query::Session session(fixture.graph);
  QueryStats::Global().ResetForTesting();

  auto result = session.Run("MATCH (f:function) RETURN f");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.alloc_bytes, 0u);
  EXPECT_GT(result->stats.peak_bytes, 0u);
  EXPECT_GT(result->stats.scanned_bytes, 0u);

  auto top = QueryStats::Global().Top(10, QueryStats::Order::kTotalLatency);
  ASSERT_FALSE(top.empty());
  EXPECT_GT(top[0].alloc_bytes_total, 0u);
  EXPECT_GT(top[0].peak_bytes_max, 0u);
  QueryStats::Global().ResetForTesting();
}

// A closure on a generated kernel burns enough CPU for the per-query
// cpu_us to be meaningful; with multiple analytics lanes the summed
// thread-CPU must be at least the exec wall time (two or more lanes busy
// at once). Gated on real hardware parallelism.
TEST(ResourceQueryTest, MultiLaneClosureCpuCoversExecWall) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs >= 2 cores for cpu >= wall to hold";
  }
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.05;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);

  graph::TypeId calls = graph.schema().edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = graph.schema().key(model::PropKey::kShortName);
  std::string seed;
  const graph::GraphView& view = graph.view();
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound() && seed.empty();
       ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    seed = std::string(view.GetNodeString(view.GetEdge(e).src, short_name));
  }
  ASSERT_FALSE(seed.empty());

  query::ExecOptions options;
  options.threads = 4;
  auto result = session.Run(
      "START n=node:node_auto_index('short_name: " + seed +
          "') MATCH n -[:calls*]-> m RETURN distinct m",
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->stats.fast_path_taken);
  EXPECT_GT(result->stats.cpu_us, 0u);
  // Lane attribution: with >= 2 lanes concurrently busy, total thread-CPU
  // meets or exceeds the executor's wall time. A generous slack absorbs
  // the clock-gettime granularity at scope edges.
  EXPECT_GE(result->stats.cpu_us + 1000,
            result->stats.timeline.exec_us)
      << "cpu_us=" << result->stats.cpu_us
      << " exec_us=" << result->stats.timeline.exec_us;
}

// Budget enforcement end to end: a query that would run (effectively)
// forever on the path-enumeration slow path trips kResourceExhausted at
// the executor's check cadence once its live bytes exceed
// FRAPPE_QUERY_MEM_BYTES.
TEST(ResourceQueryTest, MemoryBudgetTripsResourceExhausted) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.02;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);

  graph::TypeId calls = graph.schema().edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = graph.schema().key(model::PropKey::kShortName);
  std::string seed;
  const graph::GraphView& view = graph.view();
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound() && seed.empty();
       ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    seed = std::string(view.GetNodeString(view.GetEdge(e).src, short_name));
  }
  ASSERT_FALSE(seed.empty());

  ::setenv("FRAPPE_QUERY_MEM_BYTES", "262144", 1);
  query::ExecOptions options;
  options.use_csr_fast_path = false;  // the unbounded enumeration path
  options.deadline_ms = 60000;        // a broken budget fails, not hangs
  auto result = session.Run(
      "START n=node:node_auto_index('short_name: " + seed +
          "') MATCH n -[:calls*]-> m RETURN distinct m",
      options);
  ::unsetenv("FRAPPE_QUERY_MEM_BYTES");

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("memory"), std::string::npos)
      << result.status().ToString();
}

// The budget also reaches the analytics kernels' flush cadence: the CSR
// fast path cancels with the same status.
TEST(ResourceQueryTest, MemoryBudgetReachesAnalyticsKernels) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.05;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);

  graph::TypeId calls = graph.schema().edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = graph.schema().key(model::PropKey::kShortName);
  std::string seed;
  const graph::GraphView& view = graph.view();
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound() && seed.empty();
       ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    seed = std::string(view.GetNodeString(view.GetEdge(e).src, short_name));
  }
  ASSERT_FALSE(seed.empty());

  // A budget of 1 byte: the first flush after any allocation trips it.
  // (The CSR build itself happens outside the scan loops; what matters
  // here is the status code surfacing through the executor unmangled.)
  ::setenv("FRAPPE_QUERY_MEM_BYTES", "1", 1);
  auto result = session.Run(
      "START n=node:node_auto_index('short_name: " + seed +
          "') MATCH n -[:calls*]-> m RETURN distinct m");
  ::unsetenv("FRAPPE_QUERY_MEM_BYTES");

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("memory"), std::string::npos)
      << result.status().ToString();
}

// ...and the reachability predicate's kernel closures inside a Filter.
TEST(ResourceQueryTest, MemoryBudgetReachesReachabilityFilter) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.02;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);

  ::setenv("FRAPPE_QUERY_MEM_BYTES", "1", 1);
  query::ExecOptions options;
  options.deadline_ms = 60000;  // a broken budget fails, not hangs
  auto result = session.Run(query::testing::ReachabilityFilterQuery(graph),
                            options);
  ::unsetenv("FRAPPE_QUERY_MEM_BYTES");

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("memory budget"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace frappe::obs
