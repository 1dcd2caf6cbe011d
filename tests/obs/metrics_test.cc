// Metrics registry: sharded counters/histograms must merge exactly under
// concurrent recording (the TSan target for the ctest `parallel` label),
// bucket math must respect power-of-two boundaries, and the registry must
// hand out process-lifetime-stable references.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace frappe::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() { Registry::Global().ResetForTesting(); }
  ~MetricsTest() override { Registry::Global().ResetForTesting(); }
};

TEST_F(MetricsTest, CounterAccumulates) {
  Counter& c = Registry::Global().GetCounter("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  Gauge& g = Registry::Global().GetGauge("test.gauge");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
}

TEST_F(MetricsTest, RegistryInternsByName) {
  Counter& a = Registry::Global().GetCounter("test.same");
  Counter& b = Registry::Global().GetCounter("test.same");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(b.Value(), 5u);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // Bucket b covers [2^(b-1), 2^b); 0 lands in bucket 0.
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  // Values past the last bucket boundary clamp into the final bucket.
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);
  // BucketUpperBound is inclusive: bucket b covers [2^(b-1), 2^b - 1].
  for (size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    uint64_t upper = Histogram::BucketUpperBound(b);
    EXPECT_EQ(Histogram::BucketOf(upper), b) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketOf(upper + 1), b + 1) << "bucket " << b;
  }
}

TEST_F(MetricsTest, HistogramSnapshotStats) {
  Histogram& h = Registry::Global().GetHistogram("test.hist");
  for (uint64_t v : {1u, 2u, 3u, 100u}) h.Record(v);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_DOUBLE_EQ(s.Mean(), 106.0 / 4.0);
  // p50 of {1,2,3,100}: rank 2 sits in bucket [2,3] -> inclusive bound 3.
  EXPECT_EQ(s.PercentileUpperBound(0.5), 3u);
  // p100 lands in 100's bucket [64,127].
  EXPECT_EQ(s.PercentileUpperBound(1.0), 127u);
}

// Regression pins for the interpolated quantile: the stats server's
// Prometheus summaries and the fingerprint table's p99 are built on these
// exact values — drift here is drift in every exported quantile.
TEST_F(MetricsTest, QuantileInterpolatesWithinBuckets) {
  Histogram& h = Registry::Global().GetHistogram("test.quantile");
  for (uint64_t v : {1u, 2u, 3u, 100u}) h.Record(v);
  Histogram::Snapshot s = h.Snap();
  // Rank q*count walks the pow2 buckets; interpolation is linear across
  // the landing bucket's [2^(b-1), 2^b - 1] value range.
  EXPECT_DOUBLE_EQ(s.Quantile(0.25), 1.0);   // rank 1 in bucket [1,1]
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 2.5);    // rank 2 is 1/2 into [2,3]
  EXPECT_DOUBLE_EQ(s.Quantile(0.75), 3.0);   // rank 3 tops out [2,3]
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 127.0);  // rank 4 tops out [64,127]
  // Convenience overload reads the same snapshot.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.5);
  // Degenerate inputs stay in range.
  EXPECT_DOUBLE_EQ(s.Quantile(-1.0), s.Quantile(0.0));
  EXPECT_DOUBLE_EQ(s.Quantile(2.0), 127.0);
  Histogram::Snapshot empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
}

TEST_F(MetricsTest, QuantileOfZeroOnlyDistributionIsZero) {
  Histogram& h = Registry::Global().GetHistogram("test.quantile.zero");
  for (int i = 0; i < 5; ++i) h.Record(0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);  // bucket 0 is exactly {0}
}

TEST_F(MetricsTest, DumpJsonCarriesInterpolatedPercentiles) {
  Registry::Global().GetHistogram("test.pct.hist").Record(10);
  std::string json = Registry::Global().DumpJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
}

// The ctest `parallel`-label target: N threads hammer the same counter and
// histogram; after join the merged totals must be exact (no lost updates,
// no torn shard reads). Runs TSan-clean under FRAPPE_SANITIZE=thread.
TEST_F(MetricsTest, ConcurrentRecordingMergesExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  Counter& c = Registry::Global().GetCounter("test.mt.counter");
  Histogram& h = Registry::Global().GetHistogram("test.mt.hist");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Add();
        h.Record(static_cast<uint64_t>(t) + 1);  // per-thread bucket
      }
    });
  }
  // Read concurrently with the writers: totals must be torn-free
  // (monotonic, never above the final value).
  uint64_t last = 0;
  for (int probe = 0; probe < 100; ++probe) {
    uint64_t v = c.Value();
    EXPECT_GE(v, last);
    EXPECT_LE(v, kThreads * kPerThread);
    last = v;
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum = expected_sum + (static_cast<uint64_t>(t) + 1) * kPerThread;
  }
  EXPECT_EQ(s.sum, expected_sum);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST_F(MetricsTest, DumpJsonIsWellFormedEnough) {
  Registry::Global().GetCounter("test.json.counter").Add(1);
  std::string json = Registry::Global().DumpJson();
  // Balanced braces and the instrument name present — full JSON validation
  // happens in tools/trace_check.py territory; this is a smoke check.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos) << json;
  size_t open = 0, close = 0;
  for (char ch : json) {
    if (ch == '{') ++open;
    if (ch == '}') ++close;
  }
  EXPECT_EQ(open, close);
}

TEST_F(MetricsTest, ResetKeepsReferencesValidAndZeroed) {
  Counter& c = Registry::Global().GetCounter("test.reset");
  c.Add(9);
  Registry::Global().ResetForTesting();
  // The old reference must stay safe to touch (parked, not freed)...
  c.Add(1);
  // ...while a fresh lookup starts from zero.
  Counter& fresh = Registry::Global().GetCounter("test.reset");
  EXPECT_EQ(fresh.Value(), 0u);
  fresh.Add(2);
  EXPECT_EQ(fresh.Value(), 2u);
}

}  // namespace
}  // namespace frappe::obs
