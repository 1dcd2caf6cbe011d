#include "obs/fingerprint.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace frappe::obs {
namespace {

// ---------------------------------------------------------------------------
// The fingerprint primitives. Normalization itself is the FQL lexer's job
// (tests/query/lexer_test.cc).

TEST(FingerprintTest, HexIsFixedWidthLowerCase) {
  EXPECT_EQ(FingerprintHex(0), "0000000000000000");
  EXPECT_EQ(FingerprintHex(0xABCDEF0123456789ull), "abcdef0123456789");
}

// ---------------------------------------------------------------------------
// QueryStats: the per-fingerprint table.

class QueryStatsTest : public ::testing::Test {
 protected:
  void SetUp() override { QueryStats::Global().ResetForTesting(); }
  void TearDown() override { QueryStats::Global().ResetForTesting(); }
};

TEST_F(QueryStatsTest, RecordsAccumulate) {
  auto& entry = QueryStats::Global().GetOrCreate(42, "match(f)return f");
  entry.Record(/*ok=*/true, /*latency=*/100, /*row_count=*/7,
               /*hit_count=*/50);
  entry.Record(/*ok=*/false, /*latency=*/300, /*row_count=*/0,
               /*hit_count=*/10);
  auto all = QueryStats::Global().SnapshotAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].fingerprint, 42u);
  EXPECT_EQ(all[0].normalized, "match(f)return f");
  EXPECT_EQ(all[0].calls, 2u);
  EXPECT_EQ(all[0].errors, 1u);
  EXPECT_EQ(all[0].total_latency_us, 400u);
  EXPECT_EQ(all[0].max_latency_us, 300u);
  EXPECT_EQ(all[0].rows, 7u);
  EXPECT_EQ(all[0].db_hits, 60u);
  EXPECT_EQ(all[0].latency.count, 2u);
}

TEST_F(QueryStatsTest, GetOrCreateInternsOnce) {
  auto& a = QueryStats::Global().GetOrCreate(7, "q");
  auto& b = QueryStats::Global().GetOrCreate(7, "q");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(QueryStats::Global().size(), 1u);
}

TEST_F(QueryStatsTest, TopOrdersByTotalLatency) {
  QueryStats::Global().GetOrCreate(1, "cheap").Record(true, 10, 1, 1);
  QueryStats::Global().GetOrCreate(1, "cheap").Record(true, 10, 1, 1);
  QueryStats::Global().GetOrCreate(1, "cheap").Record(true, 10, 1, 1);
  QueryStats::Global().GetOrCreate(2, "expensive").Record(true, 900, 1, 1);

  auto by_latency = QueryStats::Global().Top(1);
  ASSERT_EQ(by_latency.size(), 1u);
  EXPECT_EQ(by_latency[0].fingerprint, 2u);
}

TEST_F(QueryStatsTest, DumpJsonContainsTheEntry) {
  QueryStats::Global()
      .GetOrCreate(0xABCD, "match(f)return f")
      .Record(true, 250, 3, 42);
  std::string json = QueryStats::Global().DumpJson();
  EXPECT_NE(json.find("\"fp\": \"000000000000abcd\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"calls\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"db_hits\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_latency_us\""), std::string::npos) << json;
}

// The satellite requirement: N threads x M fingerprints, exact totals
// after quiesce (run under TSan via the `parallel` ctest label).
TEST_F(QueryStatsTest, ConcurrentRecordsAreExactAfterQuiesce) {
  constexpr int kThreads = 8;
  constexpr int kFingerprints = 16;
  constexpr int kIters = 2000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        uint64_t fp = static_cast<uint64_t>((t + i) % kFingerprints) + 1;
        QueryStats::Global()
            .GetOrCreate(fp, "shape")
            .Record(/*ok=*/i % 10 != 0, /*latency=*/1, /*row_count=*/2,
                    /*hit_count=*/3);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  auto all = QueryStats::Global().SnapshotAll();
  EXPECT_EQ(all.size(), static_cast<size_t>(kFingerprints));
  uint64_t calls = 0, errors = 0, latency = 0, rows = 0, hits = 0,
           histogram_count = 0;
  for (const auto& s : all) {
    calls += s.calls;
    errors += s.errors;
    latency += s.total_latency_us;
    rows += s.rows;
    hits += s.db_hits;
    histogram_count += s.latency.count;
  }
  constexpr uint64_t kTotal = uint64_t{kThreads} * kIters;
  EXPECT_EQ(calls, kTotal);
  EXPECT_EQ(errors, kTotal / 10);  // every 10th record is an error
  EXPECT_EQ(latency, kTotal);
  EXPECT_EQ(rows, 2 * kTotal);
  EXPECT_EQ(hits, 3 * kTotal);
  EXPECT_EQ(histogram_count, kTotal);
}

// ---------------------------------------------------------------------------
// SlowQueryRing.

TEST(SlowQueryRingTest, KeepsTheMostRecentRecords) {
  SlowQueryRing::Global().ResetForTesting();
  for (int i = 0; i < static_cast<int>(SlowQueryRing::kCapacity) + 10; ++i) {
    SlowQueryRing::Record record;
    record.ts_us = i;
    record.fingerprint = static_cast<uint64_t>(i);
    record.normalized = "q" + std::to_string(i);
    record.latency_ms = 1.0;
    SlowQueryRing::Global().Push(std::move(record));
  }
  auto all = SlowQueryRing::Global().SnapshotAll();
  ASSERT_EQ(all.size(), SlowQueryRing::kCapacity);
  // Oldest-first: the first 10 were overwritten.
  EXPECT_EQ(all.front().ts_us, 10);
  EXPECT_EQ(all.back().ts_us,
            static_cast<int64_t>(SlowQueryRing::kCapacity) + 9);
  SlowQueryRing::Global().ResetForTesting();
}

}  // namespace
}  // namespace frappe::obs
