// Status plumbing for the live-diagnostics control plane: cancelled and
// deadline-exceeded queries must land in the per-fingerprint stats and the
// structured query log with the right status string, and the active-query
// registry must be empty afterwards — on every exit path, under
// concurrency included (run under TSan via the `parallel` label).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "extractor/synthetic.h"
#include "graph/csr_view.h"
#include "gtest/gtest.h"
#include "model/code_graph.h"
#include "obs/fingerprint.h"
#include "obs/query_log.h"
#include "obs/query_registry.h"
#include "query/lexer.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using obs::QueryRegistry;

// A generated kernel-shaped graph big enough that the slow-path closure
// enumeration runs well past the executor's 1024-step check cadence.
// Shared across tests — generation dominates the suite's runtime.
model::CodeGraph& KernelGraph() {
  static model::CodeGraph* graph = [] {
    auto* g = new model::CodeGraph();
    extractor::GraphScale scale;
    scale.factor = 0.02;
    extractor::GenerateKernelGraph(scale, g);
    return g;
  }();
  return *graph;
}

// A function with outgoing calls, so `-[:calls*]->` from it does real work.
std::string ClosureSeedName() {
  const model::CodeGraph& g = KernelGraph();
  const graph::GraphView& view = g.view();
  graph::TypeId calls = g.schema().edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = g.schema().key(model::PropKey::kShortName);
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    std::string_view name = view.GetNodeString(view.GetEdge(e).src,
                                               short_name);
    if (!name.empty()) return std::string(name);
  }
  return "";
}

std::string ClosureQuery(const std::string& seed) {
  return "START n=node:node_auto_index('short_name: " + seed +
         "') MATCH n -[:calls*]-> m RETURN distinct m";
}

uint64_t ErrorsForFingerprint(uint64_t fingerprint) {
  for (const obs::QueryStats::Snapshot& s :
       obs::QueryStats::Global().SnapshotAll()) {
    if (s.fingerprint == fingerprint) return s.errors;
  }
  return 0;
}

TEST(CancelTest, PreTrippedTokenCancelsSlowPathEnumeration) {
  std::string seed = ClosureSeedName();
  ASSERT_FALSE(seed.empty());
  Session session(KernelGraph());

  std::string query = ClosureQuery(seed);
  uint64_t fp = NormalizeQuery(query).fingerprint;
  uint64_t errors_before = ErrorsForFingerprint(fp);

  std::atomic<bool> cancel{true};  // tripped before the query starts
  ExecOptions options;
  options.use_csr_fast_path = false;  // force edge-distinct enumeration
  options.deadline_ms = 60000;        // backstop: broken cancel still ends
  options.cancel = &cancel;
  auto result = session.Run(query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_STREQ(StatusCodeName(result.status().code()), "Cancelled");

  // The failure is aggregated into the fingerprint stats table...
  EXPECT_EQ(ErrorsForFingerprint(fp), errors_before + 1);
  // ...and the registry entry is gone.
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, PreTrippedTokenCancelsCsrFastPath) {
  // The fast path hands the token to the analytics kernel, which polls it
  // per BFS level — a pre-tripped token cancels even the tiny fixture.
  testing::PaperFixture fixture;
  Session session(fixture.graph);
  std::atomic<bool> cancel{true};
  ExecOptions options;
  options.cancel = &cancel;
  auto result = session.Run(
      "START n=node:node_auto_index('short_name: sr_media_change')"
      " MATCH n -[:calls*]-> m RETURN distinct m",
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, MidFlightCancelThroughTheRegistry) {
  std::string seed = ClosureSeedName();
  ASSERT_FALSE(seed.empty());
  Session session(KernelGraph());

  Result<QueryResult> result = Status::Internal("runner never finished");
  std::thread runner([&] {
    ExecOptions options;
    options.use_csr_fast_path = false;
    options.deadline_ms = 60000;  // backstop if cancellation is broken
    result = session.Run(ClosureQuery(seed), options);
  });

  // Wait until the query is visible in the registry, then kill it the way
  // /debug/cancel does.
  uint64_t id = 0;
  for (int i = 0; i < 2000 && id == 0; ++i) {
    for (const QueryRegistry::Snapshot& s :
         QueryRegistry::Global().SnapshotAll()) {
      id = s.id;
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "query never appeared in the registry";
  EXPECT_TRUE(QueryRegistry::Global().Cancel(id));
  runner.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, CancelledAndDeadlineStatusesReachTheQueryLog) {
  std::string seed = ClosureSeedName();
  ASSERT_FALSE(seed.empty());
  Session session(KernelGraph());
  std::string query = ClosureQuery(seed);
  uint64_t fp = NormalizeQuery(query).fingerprint;

  const std::string path = "cancel_test_qlog.jsonl";
  std::remove(path.c_str());
  obs::QueryLog::Options qlog_options;
  qlog_options.path = path;
  ASSERT_TRUE(obs::QueryLog::Global().Enable(qlog_options).ok());

  {
    std::atomic<bool> cancel{true};
    ExecOptions options;
    options.use_csr_fast_path = false;
    options.deadline_ms = 60000;
    options.cancel = &cancel;
    auto result = session.Run(query, options);
    ASSERT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  {
    ExecOptions options;
    options.use_csr_fast_path = false;
    options.deadline_ms = 1;  // expires almost immediately
    auto result = session.Run(query, options);
    ASSERT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status().ToString();
  }
  ASSERT_TRUE(obs::QueryLog::Global().Flush().ok());
  obs::QueryLog::Global().Disable();

  auto records = obs::ReadQueryLogFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  int cancelled = 0, deadline = 0;
  for (const obs::QueryLogRecord& r : *records) {
    if (r.fingerprint != fp) continue;
    if (r.status == "Cancelled") ++cancelled;
    if (r.status == "DeadlineExceeded") ++deadline;
  }
  EXPECT_EQ(cancelled, 1);
  EXPECT_EQ(deadline, 1);
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
  std::remove(path.c_str());
}

// The reachability predicate's kernel closures obey every budget: the
// Filter of testing::ReachabilityFilterQuery (bounded, so the kernel
// answers it) is the only place one can trip.
TEST(CancelTest, StepBudgetTripsInsideReachabilityFilter) {
  Session session(KernelGraph());
  const std::string query = testing::ReachabilityFilterQuery(KernelGraph());
  auto profiled = session.Run("PROFILE " + query);
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  ASSERT_EQ(profiled->stats.operators.size(), 3u);
  const OperatorStats& filter = profiled->stats.operators[1];
  ASSERT_TRUE(filter.reach_kernel) << profiled->plan;
  // Real work: the closures scan far more edges than the budget below.
  ASSERT_GT(filter.steps, 10000u) << profiled->plan;

  ExecOptions options;
  options.max_steps = 5000;
  auto result = session.Run(query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("step budget"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, DeadlineTripsInsideReachabilityFilter) {
  Session session(KernelGraph());
  ExecOptions options;
  options.deadline_ms = 1;
  auto result =
      session.Run(testing::ReachabilityFilterQuery(KernelGraph()), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, PreTrippedTokenCancelsReachabilityFilter) {
  Session session(KernelGraph());
  std::atomic<bool> cancel{true};
  ExecOptions options;
  options.cancel = &cancel;
  options.deadline_ms = 60000;  // backstop: broken cancel still ends
  auto result =
      session.Run(testing::ReachabilityFilterQuery(KernelGraph()), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

// An unbounded reachability Filter builds the condensation on first use,
// under the query's budgets. A first query cancelled in the build fails
// with the executor's usual error; one out of time in the build goes on
// on the kernel, which runs out of time too. Neither caches anything. The
// next query builds it, is charged for it and answers like the fast path
// off; the query after that is charged no build.
TEST(CancelTest, AbortedCondensationBuildCachesNothing) {
  model::CodeGraph graph;  // its own graph: no condensation built yet
  extractor::GraphScale scale;
  scale.factor = 0.05;
  extractor::GenerateKernelGraph(scale, &graph);
  Session session(graph);
  const std::string query =
      testing::ReachabilityFilterQuery(graph, "*", /*max_rows=*/40);
  auto condensation_bytes = [&] {
    return graph.view().PackedCache()->GetStats().condensation_bytes;
  };

  std::atomic<bool> cancel{true};
  ExecOptions cancelled;
  cancelled.cancel = &cancel;
  cancelled.deadline_ms = 60000;  // backstop: broken cancel still ends
  auto first = session.Run(query, cancelled);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kCancelled)
      << first.status().ToString();
  EXPECT_EQ(first.status().message(), "query cancelled");
  EXPECT_EQ(condensation_bytes(), 0u);

  // The build scans every live edge twice (~420k scans at this scale):
  // far past a 1 ms deadline.
  ExecOptions late;
  late.deadline_ms = 1;
  auto second = session.Run(query, late);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDeadlineExceeded)
      << second.status().ToString();
  EXPECT_EQ(second.status().message(), "query exceeded deadline of 1ms");
  EXPECT_EQ(condensation_bytes(), 0u);
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);

  ExecOptions off;
  off.use_csr_fast_path = false;
  auto expected = session.Run(query, off);
  auto built = session.Run("PROFILE " + query);
  auto cached = session.Run("PROFILE " + query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_FALSE(expected->rows.empty());
  for (const QueryResult* got : {&*built, &*cached}) {
    ASSERT_EQ(got->rows.size(), expected->rows.size());
    for (size_t i = 0; i < got->rows.size(); ++i) {
      EXPECT_EQ(got->rows[i][0].node, expected->rows[i][0].node);
    }
  }
  EXPECT_GT(condensation_bytes(), 0u);

  ASSERT_EQ(built->stats.operators.size(), 3u);
  ASSERT_EQ(cached->stats.operators.size(), 3u);
  const OperatorStats& building = built->stats.operators[1];
  const OperatorStats& reading = cached->stats.operators[1];
  ASSERT_TRUE(reading.reach_kernel) << cached->plan;
  // Every probe asks whether a caller is on a cycle: its component's
  // cyclic flag says, with no DAG search and no edge scan.
  EXPECT_EQ(reading.reach_scc, cached->stats.operators[0].rows);
  EXPECT_EQ(reading.reach_order + reading.reach_anchors, 0u);
  EXPECT_EQ(reading.steps, 0u);
  EXPECT_EQ(building.steps, 2 * graph.view().Packed().LiveEdgeCount());
}

// Four threads send the first Fig. 5 query to one fresh graph at once: the
// condensation is built once, the one query that built it is charged for
// it, and every answer is the same (run under TSan via the `parallel`
// label).
TEST(CancelTest, ConcurrentFirstFigure5QueriesBuildOnce) {
  testing::PaperFixture fixture;
  const std::string fig5 = "PROFILE " + testing::Figure5Query();
  constexpr int kThreads = 4;
  std::vector<std::optional<Result<QueryResult>>> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session(fixture.graph);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[t] = session.Run(fig5);
    });
  }
  for (std::thread& t : threads) t.join();

  Session session(fixture.graph);
  ExecOptions off;
  off.use_csr_fast_path = false;
  auto expected = session.Run(testing::Figure5Query(), off);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(expected->rows.size(), 1u);
  auto filter_steps = [](const QueryResult& r) {
    for (const OperatorStats& op : r.stats.operators) {
      if (op.reach_kernel) return op.steps;
    }
    return ~uint64_t{0};
  };
  std::vector<uint64_t> steps;
  for (const auto& result : results) {
    ASSERT_TRUE(result->ok()) << result->status();
    const QueryResult& r = **result;
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].node, expected->rows[0][0].node);
    EXPECT_EQ(r.rows[0][1].value.AsInt(), expected->rows[0][1].value.AsInt());
    steps.push_back(filter_steps(r));
  }
  std::sort(steps.begin(), steps.end());
  const uint64_t build = 2 * fixture.graph.view().Packed().LiveEdgeCount();
  EXPECT_EQ(steps[0], steps[kThreads - 2]);
  EXPECT_EQ(steps[kThreads - 1], steps[0] + build);
}

TEST(CancelTest, ConcurrentRunsLeaveNoRegistryEntriesBehind) {
  testing::PaperFixture fixture;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> cancelled_runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fixture, &cancelled_runs] {
      Session session(fixture.graph);
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 3 == 0) {
          // Pre-tripped token through the CSR fast path: exercises the
          // registry's token aliasing + the analytics cancel under load.
          std::atomic<bool> cancel{true};
          ExecOptions options;
          options.cancel = &cancel;
          auto result = session.Run(
              "START n=node:node_auto_index('short_name: sr_media_change')"
              " MATCH n -[:calls*]-> m RETURN distinct m",
              options);
          if (!result.ok() &&
              result.status().code() == StatusCode::kCancelled) {
            cancelled_runs.fetch_add(1);
          }
        } else {
          auto result = session.Run("MATCH (f:function) RETURN f");
          EXPECT_TRUE(result.ok()) << result.status().ToString();
        }
      }
    });
  }
  // A concurrent observer, like the stats server scraping /debug/queryz.
  std::thread observer([] {
    for (int i = 0; i < 100; ++i) {
      QueryRegistry::Global().DumpJson();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : threads) t.join();
  observer.join();
  EXPECT_GT(cancelled_runs.load(), 0);
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

}  // namespace
}  // namespace frappe::query
