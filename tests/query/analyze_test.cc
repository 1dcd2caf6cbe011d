// ANALYZE + the cardinality estimator: the FQL command builds and swaps in
// a stats catalog, EXPLAIN/PROFILE carry est_rows from it, and PROFILE's
// q-error shows a seeded stale-catalog misestimate that clears after
// re-running ANALYZE.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/snapshot_manager.h"
#include "query/estimator.h"
#include "query/parser.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using testing::PaperFixture;

class AnalyzeTest : public ::testing::Test {
 protected:
  AnalyzeTest() : session_(fixture_.graph) {}

  QueryResult Run(const std::string& text) {
    auto result = session_.Run(text);
    EXPECT_TRUE(result.ok()) << text << " => " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  PaperFixture fixture_;
  Session session_;
};

TEST_F(AnalyzeTest, AnalyzeBuildsAndPublishesCatalog) {
  ASSERT_NE(session_.database().stats, nullptr);
  EXPECT_EQ(session_.database().stats->Get(), nullptr);

  QueryResult r = Run("ANALYZE");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_FALSE(r.columns.empty());
  EXPECT_EQ(r.columns[0], "nodes");

  auto catalog = session_.database().stats->Get();
  ASSERT_NE(catalog, nullptr);
  EXPECT_EQ(catalog->node_count, fixture_.graph.view().NodeCount());
  EXPECT_EQ(catalog->edge_count, fixture_.graph.view().EdgeCount());
  EXPECT_FALSE(catalog->hubs.empty());
  EXPECT_FALSE(catalog->index_fields.empty());

  // The summary row reports the same totals.
  EXPECT_EQ(static_cast<uint64_t>(r.rows[0][0].value.AsInt()),
            catalog->node_count);
}

TEST_F(AnalyzeTest, AnalyzeIsCaseInsensitiveAndTakesNoClauses) {
  EXPECT_TRUE(session_.Run("analyze").ok());
  auto bad = session_.Run("ANALYZE RETURN n");
  EXPECT_FALSE(bad.ok());
}

TEST_F(AnalyzeTest, ExplainCarriesEstimates) {
  QueryResult r = Run(
      "EXPLAIN START n=node:node_auto_index('short_name: cmd') RETURN n");
  EXPECT_NE(r.plan.find("est_rows="), std::string::npos) << r.plan;
}

TEST_F(AnalyzeTest, EstimatorPrefersCatalogWhenPresent) {
  auto parsed = Parse(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls]-> m RETURN m");
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  ClauseEstimates before = EstimateQuery(session_.database(), *parsed);
  EXPECT_FALSE(before.used_catalog);
  EXPECT_EQ(before.rows.size(), parsed->clauses.size());

  Run("ANALYZE");
  ClauseEstimates after = EstimateQuery(session_.database(), *parsed);
  EXPECT_TRUE(after.used_catalog);
  EXPECT_GT(after.final_rows, 0.0);
}

TEST_F(AnalyzeTest, QErrorIsSymmetricAndSmoothed) {
  EXPECT_DOUBLE_EQ(QError(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);  // smoothed: empty est vs empty
  EXPECT_DOUBLE_EQ(QError(1.0, 100.0), QError(100.0, 1.0));
  EXPECT_GT(QError(1.0, 1000.0), 100.0);
}

// The `q=` PROFILE prints on the plan's Match step, or -1 when absent.
double MatchStepQError(const std::string& plan) {
  size_t step = plan.find("Match ");
  if (step == std::string::npos) return -1.0;
  size_t q = plan.find(" q=", step);
  if (q == std::string::npos || q > plan.find('\n', step)) return -1.0;
  return std::strtod(plan.c_str() + q + 3, nullptr);
}

// The acceptance scenario: bulk ingest after ANALYZE leaves a stale
// catalog; PROFILE shows the expansion's estimate badly wrong; re-running
// ANALYZE clears the condition.
TEST_F(AnalyzeTest, StaleCatalogMisestimateFiresAndClearsAfterAnalyze) {
  const std::string query =
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls]-> m RETURN m";

  Run("ANALYZE");  // catalog matches the graph as-built

  // Bulk ingest: 200 new callees of sr_media_change. The live view (which
  // execution traverses) grows; the catalog's calls-fanout does not.
  for (int i = 0; i < 200; ++i) {
    graph::NodeId callee = fixture_.graph.AddNode(
        model::NodeKind::kFunction, "ingested_" + std::to_string(i));
    PaperFixture::Must(fixture_.graph.AddEdge(model::EdgeKind::kCalls,
                                              fixture_.sr_media_change,
                                              callee));
  }

  QueryResult stale = Run("PROFILE " + query);
  EXPECT_EQ(stale.rows.size(), 203u);  // 3 original + 200 ingested
  EXPECT_GE(MatchStepQError(stale.plan), 5.0) << stale.plan;

  // Re-ANALYZE: the refreshed fanout brings the estimate back in line.
  Run("ANALYZE");
  QueryResult fresh = Run("PROFILE " + query);
  EXPECT_EQ(fresh.rows.size(), 203u);
  double q = MatchStepQError(fresh.plan);
  EXPECT_GE(q, 1.0) << fresh.plan;
  EXPECT_LT(q, 3.0) << fresh.plan;
}

// A snapshot saved with a catalog reopens with warm estimates: the
// SnapshotSession publishes the embedded catalog into its stats cache.
TEST_F(AnalyzeTest, SnapshotSessionLoadsEmbeddedCatalog) {
  Run("ANALYZE");
  auto catalog = session_.database().stats->Get();
  ASSERT_NE(catalog, nullptr);

  std::string path = ::testing::TempDir() + "analyze_test_snapshot.db";
  graph::SnapshotManager manager(path);
  auto sizes = manager.Save(fixture_.graph.view(), &session_.name_index(),
                            catalog.get());
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  EXPECT_GT(sizes->stats, 0u);

  auto reopened = SnapshotSession::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto loaded = (*reopened)->database().stats->Get();
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->node_count, catalog->node_count);
  EXPECT_EQ(loaded->edge_count, catalog->edge_count);

  auto parsed = Parse("MATCH (n:function) RETURN n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(EstimateQuery((*reopened)->database(), *parsed).used_catalog);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace frappe::query
