#ifndef FRAPPE_OBS_FINGERPRINT_H_
#define FRAPPE_OBS_FINGERPRINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace frappe::obs {

// Workload fingerprints: every FQL query the process executes collapses
// into its *shape* (literals and whitespace stripped, case folded), so
// that "the same query with different parameters" aggregates into one
// per-fingerprint stats row. This is the unit a live service reasons
// about ("which query shape burns the p99?"), exposed via /stats on the
// embedded stats server and carried by the structured query log. The FQL
// lexer renders the shape from its tokens (query/lexer.h); obs hashes,
// stores and reports it.

// FNV-1a 64-bit over `text`: the fingerprint of a normalized query
// (stable across runs and machines).
uint64_t Fingerprint64(std::string_view text);

// "0011aabbccddeeff" — fixed-width lower-case hex, the rendering used in
// the query log and /stats.
std::string FingerprintHex(uint64_t fingerprint);

// Per-fingerprint statistics, updated on every Session::Run from the
// always-on ExecStats. Lock-cheap: the fingerprint interns an Entry once
// (short sharded-mutex lookup), after which all updates are relaxed
// atomics; entries live for the process lifetime so references never
// dangle. Readers may race with writers and see monotone approximations —
// exact once writers quiesce (same contract as the metrics Registry).
class QueryStats {
 public:
  static QueryStats& Global();

  struct Entry {
    uint64_t fingerprint = 0;
    std::string normalized;  // immutable after interning
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> total_latency_us{0};
    std::atomic<uint64_t> max_latency_us{0};
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> db_hits{0};
    // Cumulative latency attribution (the per-query Timeline, summed):
    // where this shape's total_latency_us actually went.
    std::atomic<uint64_t> queue_us_total{0};
    std::atomic<uint64_t> parse_us_total{0};
    std::atomic<uint64_t> plan_us_total{0};
    std::atomic<uint64_t> exec_us_total{0};
    // Resource attribution (obs/resource.h): cumulative thread-CPU and
    // allocated bytes, plus the worst single-query live-heap high-water
    // mark this shape ever hit.
    std::atomic<uint64_t> cpu_us_total{0};
    std::atomic<uint64_t> alloc_bytes_total{0};
    std::atomic<uint64_t> peak_bytes_max{0};
    Histogram latency_us;  // pow2-bucket latency distribution

    void Record(bool ok, uint64_t latency, uint64_t row_count,
                uint64_t hit_count);
    // Accumulates one query's timeline breakdown.
    void RecordTimeline(uint64_t queue_us, uint64_t parse_us,
                        uint64_t plan_us, uint64_t exec_us);
    // Accumulates one query's resource totals (CAS-max for peak bytes).
    void RecordResources(uint64_t cpu_us, uint64_t alloc_bytes,
                         uint64_t peak_bytes);
  };

  // Interns (on first use) and returns the process-lifetime entry for
  // `fingerprint`.
  Entry& GetOrCreate(uint64_t fingerprint, std::string_view normalized);

  // Point-in-time copy of one entry (readable without atomics).
  struct Snapshot {
    uint64_t fingerprint = 0;
    std::string normalized;
    uint64_t calls = 0;
    uint64_t errors = 0;
    uint64_t total_latency_us = 0;
    uint64_t max_latency_us = 0;
    uint64_t rows = 0;
    uint64_t db_hits = 0;
    uint64_t queue_us_total = 0;
    uint64_t parse_us_total = 0;
    uint64_t plan_us_total = 0;
    uint64_t exec_us_total = 0;
    uint64_t cpu_us_total = 0;
    uint64_t alloc_bytes_total = 0;
    uint64_t peak_bytes_max = 0;
    Histogram::Snapshot latency;
  };

  // Every fingerprint, unordered.
  std::vector<Snapshot> SnapshotAll() const;

  // The top-N view an operator actually wants: ordered by cumulative
  // latency (where the time goes). n == 0 returns everything.
  std::vector<Snapshot> Top(size_t n) const;

  // JSON array of the top-N (0 = all) by total latency: [{"fp": "..",
  // "query": "..", "calls": .., "errors": .., "total_latency_us": ..,
  // "max_latency_us": .., "avg_latency_us": .., "p99_latency_us": ..,
  // "rows": .., "db_hits": .., "cpu_us_total": .., "alloc_bytes_total": ..,
  // "peak_bytes": ..}, ...].
  std::string DumpJson(size_t top_n = 0) const;

  size_t size() const;

  // Approximate heap bytes the stats table holds (entries plus interned
  // normalized text), reported by /debug/memz.
  uint64_t ApproxBytes() const;

  // Forgets all fingerprints (entries are parked, not freed, so
  // references handed out earlier stay valid — the Registry idiom).
  void ResetForTesting();

 private:
  QueryStats() = default;

  static constexpr size_t kTableShards = 8;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::unique_ptr<Entry>> entries;
  };
  Shard shards_[kTableShards];
};

// Fixed-capacity ring of the most recent slow queries (the
// FRAPPE_SLOW_QUERY_MS hits), served by /stats so an operator sees the
// offenders without grepping stderr. Mutex-guarded: slow queries are rare
// by definition.
class SlowQueryRing {
 public:
  static constexpr size_t kCapacity = 64;

  struct Record {
    int64_t ts_us = 0;  // unix epoch microseconds
    uint64_t fingerprint = 0;
    std::string trace_id;  // 32-hex trace id, links to /debug/tracez
    std::string normalized;
    double latency_ms = 0.0;
    int64_t threshold_ms = 0;
    std::string status;  // "ok" or the Status code name
  };

  static SlowQueryRing& Global();

  void Push(Record record);
  // Oldest-first copy of the buffered records.
  std::vector<Record> SnapshotAll() const;
  // JSON array, oldest first.
  std::string DumpJson() const;

  void ResetForTesting();

 private:
  SlowQueryRing() = default;

  mutable std::mutex mu_;
  Ring<Record> ring_{kCapacity};
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_FINGERPRINT_H_
