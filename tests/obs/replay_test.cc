// The replay contract end to end: everything Session::Run logs through the
// structured query log can be re-executed verbatim from the `raw` field
// against an equivalent graph and produce the same row counts — the
// invariant examples/replay_qlog builds on.

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/fingerprint.h"
#include "obs/query_log.h"
#include "query/lexer.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::obs {
namespace {

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override { QueryStats::Global().ResetForTesting(); }
  void TearDown() override {
    QueryLog::Global().Disable();
    QueryStats::Global().ResetForTesting();
  }

  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
};

TEST_F(ReplayTest, RecordedQueriesReplayWithMatchingRowCounts) {
  std::string path = TempPath("replay_roundtrip.jsonl");
  std::remove(path.c_str());
  QueryLog::Options options;
  options.path = path;
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());

  // Record: a mix of shapes — label scan, index seek, closure, and one
  // parse failure (which must be logged but skipped by replay).
  query::testing::PaperFixture fixture;
  query::Session session(fixture.graph);
  const std::vector<std::string> workload = {
      "MATCH (f:function) RETURN f",
      "START n=node:node_auto_index('short_name: cmd')"
      " MATCH s -[:contains]-> n RETURN s",
      "START n=node:node_auto_index('short_name: sr_media_change')"
      " MATCH n -[:calls*]-> m RETURN distinct m",
      "THIS IS NOT FQL",
  };
  std::vector<size_t> recorded_rows;
  for (const std::string& q : workload) {
    auto result = session.Run(q);
    recorded_rows.push_back(result.ok() ? result->rows.size() : 0);
  }
  ASSERT_TRUE(QueryLog::Global().Flush().ok());
  QueryLog::Global().Disable();

  auto records = ReadQueryLogFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), workload.size());

  // Replay against a *fresh* session over an equivalent graph — the
  // situation replay_qlog is in after reopening a snapshot.
  query::testing::PaperFixture replay_fixture;
  query::Session replay_session(replay_fixture.graph);
  size_t replayed = 0;
  for (size_t i = 0; i < records->size(); ++i) {
    const QueryLogRecord& record = (*records)[i];
    EXPECT_EQ(record.raw, workload[i]);  // verbatim text survived the log
    EXPECT_EQ(record.fingerprint,
              query::NormalizeQuery(record.raw).fingerprint);
    if (record.status != "ok") continue;
    auto result = replay_session.Run(record.raw);
    ASSERT_TRUE(result.ok()) << record.raw << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->rows.size(), record.rows) << record.raw;
    EXPECT_EQ(result->rows.size(), recorded_rows[i]) << record.raw;
    ++replayed;
  }
  EXPECT_EQ(replayed, 3u);

  // The parse failure carried its status name, not "ok".
  EXPECT_NE((*records)[3].status, "ok");
  EXPECT_EQ((*records)[3].raw, "THIS IS NOT FQL");
}

TEST_F(ReplayTest, NormalizedAndRawServeDifferentMasters) {
  std::string path = TempPath("replay_fields.jsonl");
  std::remove(path.c_str());
  QueryLog::Options options;
  options.path = path;
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());

  query::testing::PaperFixture fixture;
  query::Session session(fixture.graph);
  // Two executions of the same shape with different literals: one
  // fingerprint, two distinct raw texts.
  ASSERT_TRUE(session
                  .Run("START n=node:node_auto_index('short_name: cmd')"
                       " RETURN n")
                  .ok());
  ASSERT_TRUE(session
                  .Run("START n=node:node_auto_index('short_name: id')"
                       " RETURN n")
                  .ok());
  ASSERT_TRUE(QueryLog::Global().Flush().ok());
  QueryLog::Global().Disable();

  auto records = ReadQueryLogFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].fingerprint, (*records)[1].fingerprint);
  EXPECT_EQ((*records)[0].query, (*records)[1].query);
  EXPECT_NE((*records)[0].raw, (*records)[1].raw);
  EXPECT_NE((*records)[0].query.find("'short_name: ?'"), std::string::npos);
}

}  // namespace
}  // namespace frappe::obs
