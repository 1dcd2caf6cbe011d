#include "obs/trace_store.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace frappe::obs {

namespace {

Counter& RetainedCounter() {
  static Counter& c = Registry::Global().GetCounter("tracestore.retained");
  return c;
}
Counter& EvictedCounter() {
  static Counter& c = Registry::Global().GetCounter("tracestore.evicted");
  return c;
}

}  // namespace

TraceStore& TraceStore::Global() {
  static TraceStore* store = new TraceStore();  // never destroyed
  return *store;
}

void TraceStore::Retain(StoredTrace trace) {
  if ((trace.trace_hi | trace.trace_lo) == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (StoredTrace& existing : ring_) {
    if (existing.trace_hi == trace.trace_hi &&
        existing.trace_lo == trace.trace_lo) {
      existing = std::move(trace);
      return;
    }
  }
  const uint64_t evicted = ring_.evicted();
  ring_.Push(std::move(trace));
  if (ring_.evicted() != evicted) EvictedCounter().Add();
  RetainedCounter().Add();
}

bool TraceStore::Lookup(uint64_t trace_hi, uint64_t trace_lo,
                        StoredTrace* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const StoredTrace& trace : ring_) {
    if (trace.trace_hi == trace_hi && trace.trace_lo == trace_lo) {
      *out = trace;
      return true;
    }
  }
  return false;
}

std::string TraceStore::IndexJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"retained\": " + std::to_string(ring_.size()) +
                    ", \"evicted\": " + std::to_string(ring_.evicted()) +
                    ", \"traces\": [";
  bool first = true;
  // Newest first: the most recent tail event is what an operator wants.
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    const StoredTrace& t = *it;
    out += std::string(first ? "" : ",") + "\n  {\"trace_id\": \"" +
           TraceIdHex(t.trace_hi, t.trace_lo) + "\", \"reason\": " +
           JsonQuote(t.reason) + ", \"status\": " + JsonQuote(t.status) +
           ", \"fingerprint\": " + JsonQuote(t.fingerprint) +
           ", \"ts_us\": " + std::to_string(t.ts_us) + ", \"latency_ms\": ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", t.latency_ms);
    out += buf;
    out += ", \"spans\": " + std::to_string(t.spans.size()) + "}";
    first = false;
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

std::string TraceStore::TraceJson(const StoredTrace& trace) {
  std::vector<CollectedSpan> spans = trace.spans;
  std::stable_sort(spans.begin(), spans.end(),
                   [](const CollectedSpan& a, const CollectedSpan& b) {
                     return a.start_us < b.start_us;
                   });
  std::string trace_id = TraceIdHex(trace.trace_hi, trace.trace_lo);
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const CollectedSpan& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"cat\": \"frappe\", "
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %llu, \"dur\": %llu",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<unsigned long long>(s.start_us),
                  static_cast<unsigned long long>(s.dur_us));
    out += buf;
    out += ", \"args\": {\"trace_id\": \"" + trace_id + "\", \"span_id\": \"" +
           SpanIdHex(s.span_id) + "\", \"parent_id\": \"" +
           SpanIdHex(s.parent_id) + "\"}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"trace_id\": \"" +
         trace_id + "\", \"reason\": \"" + trace.reason +
         "\", \"status\": \"" + trace.status + "\", \"fingerprint\": \"" +
         trace.fingerprint + "\", \"latency_ms\": \"";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", trace.latency_ms);
  out += buf;
  out += "\", \"dropped_spans\": \"" + std::to_string(trace.dropped_spans) +
         "\"}}\n";
  return out;
}

size_t TraceStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t TraceStore::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.evicted();
}

void TraceStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
}

uint64_t TraceStore::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const StoredTrace& trace : ring_) {
    bytes += sizeof(StoredTrace);
    bytes += trace.reason.capacity() + trace.status.capacity() +
             trace.fingerprint.capacity();
    bytes += trace.spans.capacity() * sizeof(CollectedSpan);
  }
  return bytes;
}

}  // namespace frappe::obs
