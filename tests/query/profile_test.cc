// PROFILE mode: executes for real, returns rows plus a plan annotated with
// per-operator stats. The db-hit and row counts must be deterministic
// across runs (only timings may differ), the annotated tree must be
// the EXPLAIN tree modulo the stats columns, and the slow-query log must
// fire when FRAPPE_SLOW_QUERY_MS says everything is slow.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "graph/analytics.h"
#include "obs/config.h"
#include "obs/log.h"
#include "query/executor.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using graph::NodeId;
using testing::PaperFixture;

// The paper's query set: Figures 3-6 plus the Table 6 variants, the corpus
// every observability claim is checked against.
std::vector<std::string> PaperQueries(const PaperFixture& fixture) {
  return {
      // Figure 3: symbol search constrained by module.
      "START m=node:node_auto_index('short_name: wakeup.elf') "
      "MATCH m -[:compiled_from|linked_from*]-> f "
      "WITH distinct f "
      "MATCH f -[:file_contains]-> (n:field{short_name: 'id'}) "
      "RETURN n",
      // Figure 4: go-to-definition.
      "START n=node:node_auto_index('short_name: id') "
      "WHERE (n) <-[{NAME_FILE_ID: " +
          std::to_string(fixture.NodeFile()) +
          ", NAME_START_LINE: 104, NAME_START_COLUMN: 16}]- () RETURN n",
      // Figure 5: debugging — writers of packet_command.cmd.
      testing::Figure5Query(),
      // Figure 6: transitive closure of outgoing calls.
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m",
      // Table 6: group labels (Cypher 2.x syntax).
      "MATCH (n:container:symbol {short_name: 'packet_command'}) RETURN n",
      "MATCH (n:container:symbol {short_name: 'helper_a'}) RETURN n",
      // Table 6: lucene type alternation (Cypher 1.x syntax).
      "START n=node:node_auto_index('(type: struct OR type: union OR "
      "type: enum_def) AND short_name: packet_command') RETURN n",
  };
}

class ProfileTest : public ::testing::Test {
 protected:
  ProfileTest() : session_(fixture_.graph) {}

  QueryResult Run(const std::string& text, const ExecOptions& options = {}) {
    auto result = session_.Run(text, options);
    EXPECT_TRUE(result.ok()) << text << " => " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  // Canonical, timing-free digest of a result: sorted row renderings.
  std::vector<std::string> RowDigest(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const auto& row : result.rows) {
      std::string line;
      for (const auto& value : row) {
        line += value.ToString(session_.database()) + "|";
      }
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  // Per-operator stats with the timing fields zeroed out.
  static std::string OperatorDigest(const ExecStats& stats) {
    std::string out;
    for (const OperatorStats& op : stats.operators) {
      out += "clause=" + std::to_string(op.clause_index) +
             " rows=" + std::to_string(op.rows) +
             " hits=" + std::to_string(op.db_hits.nodes) + "/" +
             std::to_string(op.db_hits.edges) + "/" +
             std::to_string(op.db_hits.properties) +
             " steps=" + std::to_string(op.steps) +
             " fp=" + std::to_string(op.fast_path) + "\n";
    }
    return out;
  }

  // Strips the " // rows=..." annotation suffix (plus the
  // column-alignment padding before it), recovering the bare operator tree.
  static std::string StripStats(const std::string& plan) {
    std::string out;
    size_t pos = 0;
    while (pos < plan.size()) {
      size_t eol = plan.find('\n', pos);
      if (eol == std::string::npos) eol = plan.size();
      std::string line = plan.substr(pos, eol - pos);
      size_t cut = line.find(" //");
      if (cut != std::string::npos) line.resize(cut);
      while (!line.empty() && line.back() == ' ') line.pop_back();
      out += line + "\n";
      pos = eol + 1;
    }
    return out;
  }

  PaperFixture fixture_;
  Session session_;
};

TEST_F(ProfileTest, ExplainReturnsPlanWithoutExecuting) {
  QueryResult r = Run(
      "EXPLAIN START n=node:node_auto_index('short_name: cmd') RETURN n");
  EXPECT_TRUE(r.rows.empty());
  EXPECT_TRUE(r.columns.empty());
  EXPECT_NE(r.plan.find("NodeByIndexSeek n"), std::string::npos) << r.plan;
  EXPECT_TRUE(r.stats.operators.empty());
}

TEST_F(ProfileTest, ProfileReturnsRowsAndAnnotatedPlan) {
  QueryResult r = Run(
      "PROFILE START n=node:node_auto_index('short_name: cmd') RETURN n");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].node, fixture_.cmd_field);
  EXPECT_NE(r.plan.find("NodeByIndexSeek n"), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find(" rows="), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("db_hits="), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("time="), std::string::npos) << r.plan;
  ASSERT_FALSE(r.stats.operators.empty());
  EXPECT_GT(r.stats.db_hits.Total(), 0u);
}

// Acceptance bar: PROFILE works on every paper query, on both execution
// paths, with non-zero db-hits and a stats entry per clause.
TEST_F(ProfileTest, EveryPaperQueryProfilesOnBothPaths) {
  for (const std::string& query : PaperQueries(fixture_)) {
    for (bool fast_path : {true, false}) {
      ExecOptions options;
      options.use_csr_fast_path = fast_path;
      QueryResult profiled = Run("PROFILE " + query, options);
      SCOPED_TRACE(query + (fast_path ? " [fast path]" : " [enumerate]"));
      EXPECT_FALSE(profiled.plan.empty());
      ASSERT_FALSE(profiled.stats.operators.empty());
      EXPECT_GT(profiled.stats.db_hits.Total(), 0u);
      EXPECT_NE(profiled.plan.find(" rows="), std::string::npos)
          << profiled.plan;
      // Rows and columns must match the unprofiled run exactly.
      QueryResult plain = Run(query, options);
      EXPECT_EQ(RowDigest(profiled), RowDigest(plain));
      EXPECT_EQ(profiled.columns, plain.columns);
      // The final operator's row count is the result cardinality.
      EXPECT_EQ(profiled.stats.operators.back().rows, profiled.rows.size());
    }
  }
}

// db-hits and per-operator rows are execution facts, not timing artifacts:
// they must be identical when the same query runs twice. The first run of
// an unbounded reachability query also builds the condensation and is
// charged for it, so the runs compared follow one warm-up run.
TEST_F(ProfileTest, StatsDeterministicAcrossRuns) {
  for (const std::string& query : PaperQueries(fixture_)) {
    SCOPED_TRACE(query);
    Run(query);
    QueryResult first = Run("PROFILE " + query);
    QueryResult second = Run("PROFILE " + query);
    EXPECT_EQ(OperatorDigest(second.stats), OperatorDigest(first.stats));
    EXPECT_EQ(RowDigest(second), RowDigest(first));
    EXPECT_EQ(second.stats.db_hits.Total(), first.stats.db_hits.Total());
  }
}

// The PROFILE tree is the EXPLAIN tree under the same options: stripping
// the " // ..." stats columns must recover the same bare operator tree
// from both renderings, with the fast paths on and off.
TEST_F(ProfileTest, ProfilePlanMatchesExplainModuloStats) {
  std::vector<std::string> queries = PaperQueries(fixture_);
  // A chain the executor anchors on its index-backed node.
  queries.push_back(
      "MATCH (f:function)-[:calls]->(g {short_name: 'sr_do_ioctl'}) "
      "RETURN count(f)");
  for (const std::string& query : queries) {
    for (bool fast_path : {true, false}) {
      SCOPED_TRACE(query + (fast_path ? " [fast path]" : " [enumerate]"));
      ExecOptions options;
      options.use_csr_fast_path = fast_path;
      QueryResult explained = Run("EXPLAIN " + query, options);
      QueryResult profiled = Run("PROFILE " + query, options);
      EXPECT_EQ(StripStats(profiled.plan), StripStats(explained.plan));
      // Only PROFILE adds the actual-row stats columns.
      EXPECT_EQ(explained.plan.find(" db_hits="), std::string::npos)
          << explained.plan;
    }
  }
}

// The shared renderer pads every annotated line to one column: on a
// PROFILE plan, all " //" annotation markers start at the same offset.
TEST_F(ProfileTest, AnnotationsAlignToOneColumn) {
  QueryResult r = Run(
      "PROFILE START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m");
  SCOPED_TRACE(r.plan);
  size_t column = std::string::npos;
  size_t annotated = 0;
  size_t pos = 0;
  while (pos < r.plan.size()) {
    size_t eol = r.plan.find('\n', pos);
    if (eol == std::string::npos) eol = r.plan.size();
    std::string line = r.plan.substr(pos, eol - pos);
    size_t cut = line.find(" //");
    if (cut != std::string::npos) {
      if (column == std::string::npos) column = cut;
      EXPECT_EQ(cut, column) << line;
      ++annotated;
    }
    pos = eol + 1;
  }
  EXPECT_GT(annotated, 1u);
}

TEST_F(ProfileTest, Figure6FastPathReportsFrontiersAndLanes) {
  const std::string fig6 =
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m";
  // Fig. 5's Filter builds the `calls` condensation the closure reads.
  Run(testing::Figure5Query());
  QueryResult r = Run("PROFILE " + fig6);
  EXPECT_TRUE(r.stats.fast_path_taken);
  const OperatorStats* fp = nullptr;
  for (const OperatorStats& op : r.stats.operators) {
    if (op.fast_path) fp = &op;
  }
  ASSERT_NE(fp, nullptr) << r.plan;
  // sr_media_change reaches {helper_a, get_sectorsize, helper_b} then
  // {sr_do_ioctl}: two BFS levels past the seed, non-empty frontiers.
  EXPECT_GE(fp->frontier_sizes.size(), 2u);
  for (uint64_t f : fp->frontier_sizes) EXPECT_GT(f, 0u);
  EXPECT_NE(r.plan.find("frontier=["), std::string::npos) << r.plan;
  // The unbounded closure ran on the condensation: one component per BFS
  // level of the DAG, 3 + 1 + 1 DAG edges scanned.
  EXPECT_EQ(fp->frontier_sizes, (std::vector<uint64_t>{1, 3, 1}));
  EXPECT_EQ(fp->dag_scans, 5u);
  EXPECT_NE(r.plan.find(" frontier=[1,3,1] dag_scans=5"), std::string::npos)
      << r.plan;

  // Forcing enumeration must produce the same rows without the fast path.
  ExecOptions options;
  options.use_csr_fast_path = false;
  QueryResult slow = Run("PROFILE " + fig6, options);
  EXPECT_FALSE(slow.stats.fast_path_taken);
  EXPECT_EQ(RowDigest(slow), RowDigest(r));
}

// Fig. 5's `direct -[:calls*]-> writer` runs on the condensation: the
// Filter is annotated with how its probes were decided, and its steps are
// the condensation build's edge scans plus the DAG scans (each also an
// edge db-hit), not a probe count.
TEST_F(ProfileTest, Figure5FilterRunsOnReachabilityKernel) {
  const std::string fig5 = PaperQueries(fixture_)[2];
  QueryResult r = Run("PROFILE " + fig5);
  const OperatorStats* filter = nullptr;
  for (const OperatorStats& op : r.stats.operators) {
    if (op.reach_kernel) filter = &op;
  }
  ASSERT_NE(filter, nullptr) << r.plan;
  // Probes (helper_a, sr_do_ioctl) and (helper_a, stale_writer): the first
  // searches the DAG and finds its target, the second is ruled out by the
  // components' order.
  EXPECT_NE(r.plan.find("[reachability kernel: side=source anchors=1 "
                        "early_exits=1 scc=0 order=1 dag_scans=1]"),
            std::string::npos)
      << r.plan;
  EXPECT_EQ(filter->reach_anchors, 1u);
  EXPECT_EQ(filter->reach_early_exits, 1u);
  EXPECT_EQ(filter->reach_scc, 0u);
  EXPECT_EQ(filter->reach_order, 1u);
  EXPECT_EQ(filter->dag_scans, 1u);
  EXPECT_GT(filter->steps, filter->dag_scans);  // the build
  EXPECT_EQ(filter->steps, filter->db_hits.edges);
  QueryResult explained = Run("EXPLAIN " + fig5);
  EXPECT_NE(explained.plan.find("[reachability kernel]"), std::string::npos)
      << explained.plan;

  // The fast path off answers with the per-row store walk, unannotated.
  ExecOptions options;
  options.use_csr_fast_path = false;
  QueryResult slow = Run("PROFILE " + fig5, options);
  EXPECT_EQ(RowDigest(slow), RowDigest(r));
  for (const OperatorStats& op : slow.stats.operators) {
    EXPECT_FALSE(op.reach_kernel);
  }
  EXPECT_EQ(slow.plan.find("[reachability kernel:"), std::string::npos);

  // A step budget below the Filter's steps trips inside it. With the
  // condensation built, those are the DAG scans alone.
  QueryResult cached = Run("PROFILE " + fig5);
  const OperatorStats* reading = nullptr;
  for (const OperatorStats& op : cached.stats.operators) {
    if (op.reach_kernel) reading = &op;
  }
  ASSERT_NE(reading, nullptr) << cached.plan;
  EXPECT_EQ(reading->steps, reading->dag_scans);
  uint64_t before_filter = 0;
  for (const OperatorStats& op : cached.stats.operators) {
    if (op.clause_index < reading->clause_index) before_filter += op.steps;
  }
  ExecOptions budget;
  budget.max_steps = before_filter + reading->steps - 1;
  auto tripped = session_.Run(fig5, budget);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(tripped.status().message().find("step budget"),
            std::string::npos)
      << tripped.status().ToString();
}

// A miss on the condensation: the query that builds it is charged the
// build, and every later one only its DAG scans.
TEST_F(ProfileTest, CondensedReachabilityChargesTheBuildOnce) {
  const std::string miss =
      "PROFILE START a=node(" + std::to_string(fixture_.sr_media_change) +
      "), b=node(" + std::to_string(fixture_.stale_writer) +
      ") WHERE a -[:calls*]-> b RETURN a";
  QueryResult first = Run(miss);
  QueryResult second = Run(miss);
  EXPECT_TRUE(second.rows.empty());
  ASSERT_EQ(second.stats.operators.size(), 3u);
  const OperatorStats& filter = second.stats.operators[1];
  ASSERT_TRUE(filter.reach_kernel) << second.plan;
  EXPECT_EQ(filter.reach_anchors + filter.reach_scc + filter.reach_order, 1u);
  EXPECT_EQ(filter.steps, filter.dag_scans);

  const graph::CsrView& csr =
      session_.database().csr->Get(*session_.database().view);
  EXPECT_EQ(first.stats.operators[1].steps,
            filter.steps + 2 * csr.LiveEdgeCount());
}

// A query with a step cap never builds the condensation: the build scans
// every edge twice, more than Fig. 3, 5 or 6 need on the kernel. On a
// fresh graph each runs on the kernel under a cap of exactly the kernel's
// steps, and nothing is built. Once an uncapped Fig. 5 has built it,
// capped queries read it.
TEST_F(ProfileTest, CappedQueriesOnAFreshGraphRunOnTheKernel) {
  const std::vector<std::string> queries = PaperQueries(fixture_);
  const graph::CsrView& csr =
      session_.database().csr->Get(*session_.database().view);
  auto condensation_bytes = [&] {
    return fixture_.graph.view().PackedCache()->GetStats().condensation_bytes;
  };
  ExecOptions unreachable_cap;
  unreachable_cap.max_steps = uint64_t{1} << 40;
  uint64_t fig5_kernel_steps = 0;
  for (size_t i : {0, 2, 3}) {  // Fig. 3, 5 and 6
    SCOPED_TRACE(queries[i]);
    auto kernel = session_.Run(queries[i], unreachable_cap);
    ASSERT_TRUE(kernel.ok()) << kernel.status();
    const uint64_t steps = kernel->stats.steps;
    EXPECT_LT(steps, 2 * csr.LiveEdgeCount());  // the build's scans
    if (i == 2) fig5_kernel_steps = steps;
    ExecOptions cap;
    cap.max_steps = steps;
    auto capped = session_.Run(queries[i], cap);
    ASSERT_TRUE(capped.ok()) << capped.status();
    EXPECT_EQ(capped->stats.steps, steps);
    EXPECT_EQ(RowDigest(*capped), RowDigest(*kernel));
    cap.max_steps = steps - 1;
    auto tripped = session_.Run(queries[i], cap);
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted)
        << tripped.status();
  }
  EXPECT_EQ(condensation_bytes(), 0u);

  ASSERT_TRUE(session_.Run(queries[2]).ok());
  EXPECT_GT(condensation_bytes(), 0u);
  ExecOptions cap;
  cap.max_steps = fig5_kernel_steps;
  auto condensed = session_.Run("PROFILE " + queries[2], cap);
  ASSERT_TRUE(condensed.ok()) << condensed.status();
  EXPECT_LT(condensed->stats.steps, fig5_kernel_steps);
  EXPECT_NE(condensed->plan.find(" dag_scans=1]"), std::string::npos)
      << condensed->plan;
}

// A bounded pattern stays on the kernel. A miss walks its anchor's whole
// closure: the Filter charges exactly the edge scans of that closure run
// directly on the CSR.
TEST_F(ProfileTest, ReachabilityFilterStepsEqualKernelEdgeScans) {
  QueryResult r = Run(
      "PROFILE START a=node(" + std::to_string(fixture_.sr_media_change) +
      "), b=node(" + std::to_string(fixture_.stale_writer) +
      ") WHERE a -[:calls*..8]-> b RETURN a");
  EXPECT_TRUE(r.rows.empty());
  ASSERT_EQ(r.stats.operators.size(), 3u);
  const OperatorStats& filter = r.stats.operators[1];
  ASSERT_TRUE(filter.reach_kernel) << r.plan;
  EXPECT_FALSE(filter.reach_from_target);  // one node each side: source
  EXPECT_EQ(filter.reach_anchors, 1u);
  EXPECT_EQ(filter.reach_early_exits, 0u);
  EXPECT_EQ(filter.reach_scc + filter.reach_order + filter.dag_scans,
            0u);

  const graph::CsrView& csr =
      session_.database().csr->Get(*session_.database().view);
  graph::analytics::Metrics metrics;
  graph::analytics::Options options;
  options.max_depth = 8;
  auto closure = graph::analytics::ParallelClosure(
      csr, {fixture_.sr_media_change},
      graph::EdgeFilter::Of(
          {fixture_.graph.type_id(model::EdgeKind::kCalls)}),
      options, &metrics);
  ASSERT_TRUE(closure.ok());
  EXPECT_GT(metrics.steps, 1u);
  EXPECT_EQ(filter.steps, metrics.steps);
}

// Bounded patterns: the closure anchors on the endpoint with fewer
// distinct nodes, and stops once every endpoint its rows ask about is
// reached.
TEST_F(ProfileTest, ReachabilityKernelSideChoiceAndEarlyExit) {
  QueryResult callers = Run(
      "PROFILE START b=node(" + std::to_string(fixture_.sr_do_ioctl) +
      ") MATCH (a:function) WHERE a -[:calls*..8]-> b RETURN a");
  std::set<NodeId> got;
  for (const auto& row : callers.rows) got.insert(row[0].node);
  EXPECT_EQ(got, (std::set<NodeId>{fixture_.sr_media_change,
                                   fixture_.helper_a, fixture_.helper_b}));
  ASSERT_EQ(callers.stats.operators.size(), 4u);
  const OperatorStats& filter = callers.stats.operators[2];
  EXPECT_TRUE(filter.reach_from_target);
  EXPECT_EQ(filter.reach_anchors, 1u);
  EXPECT_NE(callers.plan.find("[reachability kernel: side=target anchors=1 "
                              "early_exits=0 scc=0 order=0 dag_scans=0]"),
            std::string::npos)
      << callers.plan;

  QueryResult hit = Run(
      "PROFILE START a=node(" + std::to_string(fixture_.helper_a) +
      "), b=node(" + std::to_string(fixture_.sr_do_ioctl) +
      ") WHERE a -[:calls*..8]-> b RETURN a");
  ASSERT_EQ(hit.rows.size(), 1u);
  ASSERT_EQ(hit.stats.operators.size(), 3u);
  EXPECT_EQ(hit.stats.operators[1].reach_early_exits, 1u) << hit.plan;
}

TEST_F(ProfileTest, ExecStatsAlwaysPopulated) {
  QueryResult r = Run("MATCH (n:module) RETURN n");
  EXPECT_GT(r.stats.db_hits.Total(), 0u);
  EXPECT_GT(r.stats.steps, 0u);
  EXPECT_GE(r.stats.elapsed_ms, 0.0);
  EXPECT_TRUE(r.stats.operators.empty());  // only PROFILE collects these
}

// An unbound anchor that can match nothing (here a key the graph lacks)
// enumerates no candidates, even when it carries an index-backed property.
TEST_F(ProfileTest, ImpossibleAnchorEnumeratesNothing) {
  QueryResult impossible = Run(
      "PROFILE MATCH (f:function {short_name: 'sr_do_ioctl', nosuchkey: "
      "'a'}) RETURN f");
  QueryResult unknown_label = Run("PROFILE MATCH (f:nosuchlabel) RETURN f");
  EXPECT_TRUE(impossible.rows.empty());
  EXPECT_TRUE(unknown_label.rows.empty());
  EXPECT_EQ(impossible.stats.steps, unknown_label.stats.steps)
      << impossible.plan;
}

TEST_F(ProfileTest, SlowQueryLogFiresAtThresholdZero) {
  obs::RuntimeConfig config;
  config.slow_query_ms = 0;
  obs::SetConfigForTesting(config);
  std::vector<std::string> logged;
  obs::Log::SetSinkForTesting([&logged](const obs::LogEntry& entry) {
    if (entry.component == "slowlog") logged.push_back(entry.message);
  });
  auto result = session_.Run(
      "START n=node:node_auto_index('short_name: cmd') RETURN n");
  obs::Log::SetSinkForTesting(nullptr);
  obs::SetConfigForTesting(obs::RuntimeConfig());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_NE(logged[0].find("slow query"), std::string::npos) << logged[0];
  // The entry is keyed by fingerprint + normalized text — the same key the
  // /stats fingerprint table and the query log use, so the three views
  // join on fp. The headline line strips the literal ('cmd' -> '?'); the
  // appended plan may still show it (operators want the real plan).
  EXPECT_NE(logged[0].find("fp="), std::string::npos) << logged[0];
  EXPECT_NE(logged[0].find("'short_name: ?'"), std::string::npos)
      << logged[0];
  std::string headline = logged[0].substr(0, logged[0].find('\n'));
  EXPECT_EQ(headline.find("short_name: cmd"), std::string::npos) << headline;
  // The log carries the plan so the on-call reader sees *why* it was slow.
  EXPECT_NE(logged[0].find("NodeByIndexSeek"), std::string::npos)
      << logged[0];
}

TEST_F(ProfileTest, SlowQueryLogSilentWhenUnset) {
  obs::SetConfigForTesting(obs::RuntimeConfig());
  std::vector<std::string> logged;
  obs::Log::SetSinkForTesting([&logged](const obs::LogEntry& entry) {
    if (entry.component == "slowlog") logged.push_back(entry.message);
  });
  auto result = session_.Run(
      "START n=node:node_auto_index('short_name: cmd') RETURN n");
  obs::Log::SetSinkForTesting(nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(logged.empty());
}

}  // namespace
}  // namespace frappe::query
