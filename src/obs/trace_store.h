#ifndef FRAPPE_OBS_TRACE_STORE_H_
#define FRAPPE_OBS_TRACE_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace frappe::obs {

// Bounded tail-sampled trace retention: every server request collects its
// span tree into a SpanCollector; at completion the server decides whether
// the tree is worth keeping (slow, errored, cancelled, shed, or explicitly
// traced by the client) and hands it here. A query with no server around
// it is kept by the session when it is slow, as a one-span tree.
// /debug/tracez?trace_id=... then serves the retained tree without any
// blocking capture window, and /stats lists the slow records.
//
// A fixed-capacity Ring of full span trees under one mutex: retention is a
// per-request cold path (at most one Retain per query, and only for the
// tail), lookups come from the stats server's serving thread.

struct StoredTrace {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  std::string reason;       // RetentionReason(): "error" | "cancelled" |
                            // "slow" | "requested", or "shed"
  std::string status;       // "ok" or the status-code name
  std::string fingerprint;  // 16-hex query fingerprint; empty when unknown
  std::string query;        // normalized query text; empty when unknown
  bool slow = false;        // the session's verdict (FRAPPE_SLOW_QUERY_MS)
  uint64_t ts_us = 0;       // unix micros at retention
  double latency_ms = 0;
  uint64_t dropped_spans = 0;
  std::vector<CollectedSpan> spans;
};

// Why a finished query's tree is kept, in precedence order: "cancelled"
// or "error" when it failed, "slow" when the session judged it slow,
// "requested" when the client traced it; nullptr when it is not kept.
const char* RetentionReason(StatusCode code, bool slow, bool requested);

class TraceStore {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  static TraceStore& Global();

  explicit TraceStore(size_t capacity = kDefaultCapacity) : ring_(capacity) {}

  // Keeps `trace`, evicting the oldest retained trace when full. A second
  // Retain with the same trace id replaces the first (retries reuse ids).
  void Retain(StoredTrace trace);

  bool Lookup(uint64_t trace_hi, uint64_t trace_lo, StoredTrace* out) const;

  // {"retained": N, "evicted": M, "traces": [{trace_id, reason, status,
  //  fingerprint, ts_us, latency_ms, spans}, ...]} newest first.
  std::string IndexJson() const;

  // The /stats slow-query list: the retained records with `slow` set,
  // newest first, as [{"ts_us", "fp", "trace_id", "query", "latency_ms",
  // "status"}, ...].
  std::string SlowJson() const;

  // One span tree as Chrome trace-event JSON: {"traceEvents": [{"name",
  // "ph": "X", "pid", "tid", "ts", "dur", "args": {trace_id, span_id,
  // parent_id}}, ...]} in start order, with the retention metadata in
  // "otherData". The one trace-event writer: /debug/tracez serves it, and
  // any TraceScope's collected spans export through it.
  static std::string TraceJson(const StoredTrace& trace);

  size_t size() const;
  uint64_t evicted() const;
  void Clear();

  // Approximate heap footprint of the retained traces (ring metadata,
  // per-trace strings, span vectors) for /debug/memz.
  uint64_t ApproxBytes() const;

 private:
  mutable std::mutex mu_;
  Ring<StoredTrace> ring_;
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_TRACE_STORE_H_
