// Per-query resource accounting (obs/resource.h): the allocation seam's
// exactness under concurrency, peak/live byte tracking, CPU attribution,
// memory-budget enforcement through the executor, and the plumbing into
// ExecStats and the per-fingerprint stats table.
//
// Runs under TSan via the `parallel` label (the tracker is charged from
// many threads concurrently) and under ASan via `storage` (the
// operator new/delete replacements must keep the sanitizer's allocator
// interceptors in the loop).

#include "obs/resource.h"

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "extractor/synthetic.h"
#include "gtest/gtest.h"
#include "model/code_graph.h"
#include "obs/config.h"
#include "obs/fingerprint.h"
#include "obs/stats_server.h"
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

  auto top = QueryStats::Global().Top(10);
  ASSERT_FALSE(top.empty());
  EXPECT_GT(top[0].alloc_bytes_total, 0u);
  EXPECT_GT(top[0].peak_bytes_max, 0u);
  QueryStats::Global().ResetForTesting();
}

// `MATCH n -[:calls*]-> m RETURN distinct m` from the first function with
// a call edge.
// Sets the FRAPPE_QUERY_MEM_BYTES knob (0 = unlimited) for the sessions
// that run next.
void SetQueryMemBytes(uint64_t bytes) {
  RuntimeConfig config;
  config.query_mem_bytes = bytes;
  SetConfigForTesting(config);
}

std::string ClosureQuery(const model::CodeGraph& graph) {
  graph::TypeId calls = graph.schema().edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = graph.schema().key(model::PropKey::kShortName);
  const graph::GraphView& view = graph.view();
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    return "START n=node:node_auto_index('short_name: " +
           std::string(view.GetNodeString(view.GetEdge(e).src, short_name)) +
           "') MATCH n -[:calls*]-> m RETURN distinct m";
  }
  ADD_FAILURE() << "no call edge";
  return "";
}

// A closure on a generated kernel answered by the CSR fast path charges
// its thread-CPU to the query.
TEST(ResourceQueryTest, FastPathClosureReportsCpu) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.05;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);

  auto result = session.Run(ClosureQuery(graph));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.fast_path_taken);
  EXPECT_GT(result->stats.cpu_us, 0u);
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

  SetQueryMemBytes(262144);
  query::ExecOptions options;
  options.use_csr_fast_path = false;  // the unbounded enumeration path
  options.deadline_ms = 60000;        // a broken budget fails, not hangs
  auto result = session.Run(ClosureQuery(graph), options);
  SetQueryMemBytes(0);

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

  // A budget of 1 byte: the first flush after any allocation trips it.
  // (The CSR build itself happens outside the scan loops; what matters
  // here is the status code surfacing through the executor unmangled.)
  SetQueryMemBytes(1);
  auto result = session.Run(ClosureQuery(graph));
  SetQueryMemBytes(0);

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

  SetQueryMemBytes(1);
  query::ExecOptions options;
  options.deadline_ms = 60000;  // a broken budget fails, not hangs
  auto result = session.Run(query::testing::ReachabilityFilterQuery(graph),
                            options);
  SetQueryMemBytes(0);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("memory budget"),
            std::string::npos)
      << result.status().ToString();
}

// ...and the condensation build behind an unbounded one, which then
// caches nothing and leaves the query to the kernel, which trips too.
TEST(ResourceQueryTest, MemoryBudgetReachesCondensationBuild) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.02;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);

  SetQueryMemBytes(1);
  query::ExecOptions options;
  options.deadline_ms = 60000;  // a broken budget fails, not hangs
  auto result = session.Run(
      query::testing::ReachabilityFilterQuery(graph, "*"), options);
  SetQueryMemBytes(0);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("memory budget"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(graph.view().PackedCache()->GetStats().condensation_bytes, 0u);
}

// A memory budget the kernel fits in but the condensation build does not:
// the build stops, caches nothing, and the kernel answers the query.
TEST(ResourceQueryTest, MemoryBudgetBelowTheBuildFallsBackToTheKernel) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.05;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);
  const std::string query =
      query::testing::ReachabilityFilterQuery(graph, "*", /*max_rows=*/2);

  graph.view().Packed();  // the CSR itself, outside every query
  // A step cap keeps the first run on the kernel, building nothing.
  query::ExecOptions capped;
  capped.max_steps = uint64_t{1} << 40;
  auto kernel = session.Run(query, capped);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  const uint64_t kernel_peak = kernel->stats.peak_bytes;
  ASSERT_GT(kernel_peak, 0u);

  SetQueryMemBytes(4 * kernel_peak);
  query::ExecOptions options;
  options.deadline_ms = 60000;  // a broken budget fails, not hangs
  auto fallback = session.Run(query, options);
  SetQueryMemBytes(0);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_EQ(fallback->rows.size(), kernel->rows.size());
  EXPECT_EQ(graph.view().PackedCache()->GetStats().condensation_bytes, 0u);

  auto built = session.Run(query);
  ASSERT_TRUE(built.ok()) << built.status();
  // The premise: the build needs more than the budget above.
  EXPECT_GT(built->stats.peak_bytes, 4 * kernel_peak);
  EXPECT_GT(graph.view().PackedCache()->GetStats().condensation_bytes, 0u);
}

// One parser for FRAPPE_QUERY_MEM_BYTES: the budget a session enforces is
// the query_mem_budget_bytes /debug/memz reports, also for a value with
// trailing garbage, which both read as unset (0 = unlimited).
TEST(ResourceQueryTest, SessionBudgetMatchesMemz) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.05;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);

  // The number following `key` in `text`, or -1 when absent.
  auto number_after = [](const std::string& text, const std::string& key) {
    size_t at = text.find(key);
    return at == std::string::npos
               ? -1LL
               : std::stoll(text.substr(at + key.size()));
  };
  for (const char* value : {"64MB", "64"}) {
    SCOPED_TRACE(value);
    std::vector<std::string> warnings;
    SetConfigForTesting(ParseRuntimeConfig(
        [value](const char* name) {
          return std::string_view(name) == "FRAPPE_QUERY_MEM_BYTES" ? value
                                                                    : nullptr;
        },
        &warnings));
    long long reported = number_after(StatsServer::MemzJson(),
                                      "\"query_mem_budget_bytes\": ");
    auto result = session.Run(ClosureQuery(graph));
    SetConfigForTesting(RuntimeConfig());

    long long enforced =
        result.ok() ? 0
                    : number_after(result.status().message(),
                                   "memory budget of ");
    EXPECT_EQ(enforced, reported) << result.status().ToString();
    EXPECT_EQ(reported, std::string(value) == "64" ? 64 : 0);
  }
}

}  // namespace
}  // namespace frappe::obs
