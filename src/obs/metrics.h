#ifndef FRAPPE_OBS_METRICS_H_
#define FRAPPE_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace frappe::obs {

// Process-wide metrics for the query/analytics stack. Three instrument
// kinds — Counter, Gauge, Histogram — live in a named Registry and can be
// dumped as text or JSON.
//
// Design constraints (TSan-clean):
//  * Recording must be lock-free and cheap enough for hot loops: counters
//    and histograms are sharded across kShards cache-line-separated slots,
//    a thread picks its shard by thread-id hash, and shards are merged only
//    on read. No mutex is ever taken on the write path.
//  * Reads (Value/Snapshot/Dump*) may race with writers; they observe a
//    consistent-enough snapshot built from relaxed atomic loads — exact
//    totals once writers quiesce, monotone approximations while they run.
//  * Instrument objects are allocated once per name and never freed, so a
//    `static Counter& c = Registry::Global().GetCounter("x");` reference
//    stays valid for the process lifetime (the idiomatic hot-path pattern;
//    the per-name mutex lookup happens once).

inline constexpr size_t kMetricShards = 16;

// Shard index for the calling thread. Stable per thread, cheap (one
// thread_local read after first use).
size_t ShardIndex();

struct alignas(64) MetricShard {
  std::atomic<uint64_t> value{0};
};

// Monotone event count.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const MetricShard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  MetricShard shards_[kMetricShards];
};

// Point-in-time signed value (sizes, occupancy). Not sharded: gauges are
// set, not accumulated, so a single atomic is both correct and cheap.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket latency/size histogram: bucket b counts samples in
// [2^(b-1), 2^b) (bucket 0 = {0}), so 48 buckets cover the full uint64
// range with power-of-two resolution — no configuration, no allocation,
// and merging shards is elementwise addition.
class Histogram {
 public:
  static constexpr size_t kBuckets = 48;

  void Record(uint64_t value) {
    Shard& s = shards_[ShardIndex()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    s.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  }

  // OpenMetrics exemplar: the most recent traced sample to land in a
  // bucket, so a /metrics p99 spike links to a concrete trace id.
  struct Exemplar {
    uint64_t value = 0;
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t ts_us = 0;  // unix wall-clock micros; 0 = slot empty
  };

  // Records `value` and pins it as its bucket's exemplar. This is the
  // *cold* per-request path (one mutex); hot loops keep using Record,
  // which stays lock-free.
  void RecordWithExemplar(uint64_t value, uint64_t trace_hi,
                          uint64_t trace_lo);

  // True once any exemplar has been pinned — the exposition switches this
  // histogram from summary to bucketed-histogram-with-exemplars form.
  bool has_exemplars() const {
    return has_exemplars_.load(std::memory_order_relaxed);
  }

  // Latest exemplar per bucket (kBuckets entries; ts_us == 0 means empty).
  std::vector<Exemplar> SnapshotExemplars() const;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t buckets[kBuckets] = {};
    // Filled by Registry::SnapshotHistograms when the histogram has
    // exemplars; empty otherwise.
    std::vector<Exemplar> exemplars;

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) /
                              static_cast<double>(count);
    }
    // Upper bound of the bucket holding the p-quantile (p in [0,1]).
    uint64_t PercentileUpperBound(double p) const;
    // Interpolated q-quantile (q in [0,1]): finds the bucket holding the
    // q*count-th sample and interpolates linearly across that bucket's
    // value range [2^(b-1), 2^b - 1] (bucket 0 is exactly {0}). Exact for
    // single-valued buckets, deterministic everywhere — regression tests
    // pin the values (tests/obs/metrics_test.cc).
    double Quantile(double q) const;
  };

  // Merges every shard. May race with concurrent Record calls (sees a
  // monotone approximation); exact once writers quiesce.
  Snapshot Snap() const;

  // Convenience: Snap().Quantile(q). Prefer taking one Snapshot when
  // reading several quantiles.
  double Quantile(double q) const { return Snap().Quantile(q); }

  static size_t BucketOf(uint64_t value);
  // Inclusive upper bound of bucket b's value range.
  static uint64_t BucketUpperBound(size_t b);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kBuckets] = {};
  };
  Shard shards_[kMetricShards];

  mutable std::mutex exemplar_mu_;
  Exemplar exemplars_[kBuckets];
  std::atomic<bool> has_exemplars_{false};
};

// Named instrument store. Get* interns the instrument on first use and
// returns a stable reference; names are conventionally dot-separated
// (`query.latency_us`, `analytics.bfs.levels` — see DESIGN.md for the
// full table).
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  //  mean, p50, p95, p99, p50_le, p90_le, p99_le}}}
  std::string DumpJson() const;

  // Point-in-time copies for exporters (the /metrics Prometheus
  // exposition), sorted by name. Values are the usual merged-shard reads:
  // exact once writers quiesce.
  std::vector<std::pair<std::string, uint64_t>> SnapshotCounters() const;
  std::vector<std::pair<std::string, int64_t>> SnapshotGauges() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> SnapshotHistograms()
      const;

  // Zeroes nothing — instruments are process-lifetime — but forgets all
  // names so tests start from an empty registry. References handed out
  // earlier keep working (the instruments leak deliberately).
  void ResetForTesting();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_METRICS_H_
