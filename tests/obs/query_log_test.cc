#include "obs/query_log.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "gtest/gtest.h"
#include "obs/fingerprint.h"
#include "obs/trace.h"

namespace frappe::obs {
namespace {

QueryLogRecord MakeRecord(int i) {
  QueryLogRecord record;
  record.ts_us = 1700000000000000 + i;
  record.trace_id = TraceIdHex(0x1000 + static_cast<uint64_t>(i), 0x2000);
  record.query = "match(f:function{name:?})return f";
  // The fingerprint is the hash of the normalized query, as Session::Run
  // logs it (tools/qlog_check.py checks that).
  record.fingerprint = Fingerprint64(record.query);
  record.raw = "MATCH (f:function {name: 'fn_" + std::to_string(i) +
               "'}) RETURN f";
  record.status = "ok";
  record.latency_us = 100 + static_cast<uint64_t>(i);
  record.rows = static_cast<uint64_t>(i);
  record.db_hits = static_cast<uint64_t>(i) * 3;
  record.fast_path = i % 2 == 0;
  return record;
}

int64_t FileSize(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

TEST(QueryLogRecordTest, JsonLineRoundTrips) {
  QueryLogRecord record = MakeRecord(7);
  record.status = "DeadlineExceeded";
  std::string line = ToJsonLine(record);
  ASSERT_EQ(line.back(), '\n');

  auto parsed = ParseJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ts_us, record.ts_us);
  EXPECT_EQ(parsed->fingerprint, record.fingerprint);
  EXPECT_EQ(parsed->query, record.query);
  EXPECT_EQ(parsed->raw, record.raw);
  EXPECT_EQ(parsed->status, "DeadlineExceeded");
  EXPECT_EQ(parsed->latency_us, record.latency_us);
  EXPECT_EQ(parsed->rows, record.rows);
  EXPECT_EQ(parsed->db_hits, record.db_hits);
  EXPECT_EQ(parsed->fast_path, record.fast_path);
}

TEST(QueryLogRecordTest, JsonEscapesSurvive) {
  QueryLogRecord record;
  record.fingerprint = 1;
  record.query = "match(n{name:?})";
  record.raw = "MATCH (n {name: 'quote\"back\\slash\ttab\nnewline'})";
  auto parsed = ParseJsonLine(ToJsonLine(record));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->raw, record.raw);
}

TEST(QueryLogRecordTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseJsonLine("not json").ok());
  EXPECT_FALSE(ParseJsonLine("{\"ts_us\": 1}").ok());  // missing fp/query
  EXPECT_FALSE(ParseJsonLine("").ok());
}

class QueryLogTest : public ::testing::Test {
 protected:
  void TearDown() override { QueryLog::Global().Disable(); }

  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
};

TEST_F(QueryLogTest, RecordsReachDiskInOrder) {
  std::string path = TempPath("qlog_basic.jsonl");
  std::remove(path.c_str());
  QueryLog::Options options;
  options.path = path;
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  uint64_t written_before = QueryLog::Global().written();
  uint64_t dropped_before = QueryLog::Global().dropped();

  constexpr int kRecords = 100;
  for (int i = 0; i < kRecords; ++i) {
    QueryLog::Global().Record(MakeRecord(i));
  }
  ASSERT_TRUE(QueryLog::Global().Flush().ok());
  EXPECT_EQ(QueryLog::Global().written() - written_before,
            static_cast<uint64_t>(kRecords));
  EXPECT_EQ(QueryLog::Global().dropped() - dropped_before, 0u);
  QueryLog::Global().Disable();

  auto records = ReadQueryLogFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ((*records)[i].rows, static_cast<uint64_t>(i));
  }
}

TEST_F(QueryLogTest, EnableTwiceFails) {
  QueryLog::Options options;
  options.path = TempPath("qlog_twice.jsonl");
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  EXPECT_FALSE(QueryLog::Global().Enable(options).ok());
}

TEST_F(QueryLogTest, DisabledLogDropsSilently) {
  // No Enable: Record must be a no-op, not a crash or a queue-up.
  QueryLog::Global().Record(MakeRecord(0));
  EXPECT_FALSE(QueryLog::Global().enabled());
}

// Satellite: rotation honors the size cap, renames atomically, and never
// tears a line.
TEST_F(QueryLogTest, RotationHonorsSizeCapWithoutTearingLines) {
  std::string path = TempPath("qlog_rotate.jsonl");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  QueryLog::Options options;
  options.path = path;
  options.max_bytes = 2048;  // a handful of ~200-byte records per file
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  uint64_t written_before = QueryLog::Global().written();
  uint64_t rotations_before = QueryLog::Global().rotations();

  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    QueryLog::Global().Record(MakeRecord(i));
    // Keep the ring shallow so the writer interleaves with production and
    // rotation happens mid-stream, not in one terminal drain.
    if (i % 16 == 0) {
      ASSERT_TRUE(QueryLog::Global().Flush().ok());
    }
  }
  ASSERT_TRUE(QueryLog::Global().Flush().ok());
  EXPECT_GE(QueryLog::Global().rotations() - rotations_before, 1u);
  EXPECT_EQ(QueryLog::Global().written() - written_before,
            static_cast<uint64_t>(kRecords));
  QueryLog::Global().Disable();

  // The live file never exceeds the cap (rotate happens *before* the
  // breaching write), and the rotated generation exists.
  EXPECT_LE(FileSize(path), static_cast<int64_t>(options.max_bytes));
  EXPECT_GT(FileSize(path + ".1"), 0);

  // No torn lines in either file: every line parses, and the records that
  // survived (the newest file plus one rotated generation) are a suffix of
  // what was logged — contiguous, in order.
  auto rotated = ReadQueryLogFile(path + ".1");
  ASSERT_TRUE(rotated.ok()) << rotated.status().ToString();
  auto live = ReadQueryLogFile(path);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  std::vector<QueryLogRecord> survived = *rotated;
  survived.insert(survived.end(), live->begin(), live->end());
  ASSERT_FALSE(survived.empty());
  EXPECT_EQ(survived.back().rows, static_cast<uint64_t>(kRecords - 1));
  for (size_t i = 1; i < survived.size(); ++i) {
    EXPECT_EQ(survived[i].rows, survived[i - 1].rows + 1);
  }
}

TEST_F(QueryLogTest, FullRingShedsLoadAndCountsDrops) {
  std::string path = TempPath("qlog_drop.jsonl");
  std::remove(path.c_str());
  QueryLog::Options options;
  options.path = path;
  options.ring_capacity = 8;
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  uint64_t dropped_before = QueryLog::Global().dropped();

  QueryLog::Global().PauseWriterForTesting(true);
  for (int i = 0; i < 20; ++i) {
    QueryLog::Global().Record(MakeRecord(i));
  }
  // 8 slots filled, 12 shed — the query path never blocked.
  EXPECT_EQ(QueryLog::Global().dropped() - dropped_before, 12u);
  QueryLog::Global().PauseWriterForTesting(false);
  ASSERT_TRUE(QueryLog::Global().Flush().ok());
  QueryLog::Global().Disable();

  auto records = ReadQueryLogFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 8u);
}

// Exports the fixture file tools/qlog_check.py validates from ctest (the
// `qlog_check` entry; WORKING_DIRECTORY pins where it lands).
TEST_F(QueryLogTest, ExportsSchemaFixture) {
  const std::string path = "qlog_export.jsonl";
  std::remove(path.c_str());
  QueryLog::Options options;
  options.path = path;
  ASSERT_TRUE(QueryLog::Global().Enable(options).ok());
  for (int i = 0; i < 10; ++i) {
    QueryLogRecord record = MakeRecord(i);
    if (i == 9) record.status = "InvalidArgument";
    QueryLog::Global().Record(std::move(record));
  }
  ASSERT_TRUE(QueryLog::Global().Flush().ok());
  QueryLog::Global().Disable();
  EXPECT_GT(FileSize(path), 0);
}

}  // namespace
}  // namespace frappe::obs
