#ifndef FRAPPE_OBS_TRACE_H_
#define FRAPPE_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace frappe::obs {

// Request-scoped causal tracing for the query/analytics/extractor stack.
// A unit of work (a server request, a bench iteration, a test) installs a
// TraceScope with a TraceContext (128-bit trace id) and a SpanCollector;
// every Span completed under it lands in the collector with its span and
// parent ids. All span sites run on the thread that started the work, so
// the scope sees the whole tree. TraceStore retains tail trees and its
// TraceJson renders them as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev).
//
// With no scope installed a Span constructor is one thread-local load and
// a branch — no clock read, no allocation — cheap enough to leave in
// per-BFS-level code (bench_obs_overhead holds it under 5% of executor
// time). Span names must be string literals (stored as const char*).

// W3C trace-context identity: a 128-bit trace id plus the id of the span
// that is "current" on this context (the parent for any span started under
// it). A zero trace id means "no trace".
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;  // current span; parent of children started under it

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

// Parses a W3C `traceparent` header value:
//   00-<32 lowercase hex trace id>-<16 hex parent span id>-<2 hex flags>
// Returns nullopt for anything malformed (wrong length, bad hex, version
// "ff", all-zero trace id or span id) — callers fall back to a fresh
// context, never an error. The returned context's span_id is the remote
// parent span id.
std::optional<TraceContext> ParseTraceparent(std::string_view header);

// "00-<trace id hex>-<span id hex>-01" for the given context.
std::string FormatTraceparent(const TraceContext& ctx);

// 32 lowercase hex chars of the 128-bit trace id.
std::string TraceIdHex(uint64_t trace_hi, uint64_t trace_lo);
inline std::string TraceIdHex(const TraceContext& ctx) {
  return TraceIdHex(ctx.trace_hi, ctx.trace_lo);
}

// 16 lowercase hex chars of a span id.
std::string SpanIdHex(uint64_t span_id);

// Parses 32 lowercase-or-uppercase hex chars into a 128-bit trace id.
bool ParseTraceIdHex(std::string_view hex, uint64_t* hi, uint64_t* lo);

// A fresh context with a random non-zero 128-bit trace id and span_id 0
// (no parent yet).
TraceContext GenerateTraceContext();

// One completed span captured into a per-request SpanCollector.
struct CollectedSpan {
  const char* name = nullptr;  // static string
  uint32_t tid = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of this request's tree
  uint64_t start_us = 0;   // Trace::NowMicros timebase
  uint64_t dur_us = 0;
};

// Bounded per-request span sink. One collector per in-flight request;
// worker, session and kernel spans append under their own per-collector
// mutex (cold path — only taken when a request is actually being traced).
class SpanCollector {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit SpanCollector(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  void Add(const CollectedSpan& span) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(span);
  }

  std::vector<CollectedSpan> TakeSpans() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<CollectedSpan> out;
    out.swap(spans_);
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<CollectedSpan> spans_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

class Trace {
 public:
  // Microseconds since the process trace epoch (first use).
  static uint64_t NowMicros();
  // Wall-clock microseconds since the Unix epoch: the ts_us of log
  // entries, query records, exemplars and retained traces.
  static uint64_t UnixMicros();

  // True when a TraceScope is installed on this thread.
  static bool HasRequestContext();
  // This thread's installed context (trace id + the span that new spans
  // will parent under). Zero-valued when none installed.
  static TraceContext CurrentContext();
  // The queue-wait attributed to this thread's current request, as set by
  // TraceScope (0 outside a server request).
  static uint64_t CurrentQueueWaitUs();

  // Process-unique non-zero span id (thread tag + local counter).
  static uint64_t NextSpanId();
};

// RAII installation of a request trace context on the current thread: all
// spans started while it is alive parent under `ctx.span_id`, carry the
// 128-bit trace id, and are appended to `sink`. A null sink records
// nothing. Restores the previous thread state on destruction, so scopes
// nest.
class TraceScope {
 public:
  TraceScope(const TraceContext& ctx, SpanCollector* sink,
             uint64_t queue_wait_us = 0);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // What a scope installs on its thread (and restores on exit).
  struct State {
    TraceContext ctx;  // ctx.span_id: the parent of the next span started
    SpanCollector* sink = nullptr;
    uint64_t queue_wait_us = 0;
  };

 private:
  State saved_;
};

// What the innermost TraceScope installed on this thread (defined in
// trace.cc). constinit lets every Span read it inline, with no TLS
// initialization check.
extern constinit thread_local TraceScope::State tls_trace_scope;

inline bool Trace::HasRequestContext() {
  return tls_trace_scope.sink != nullptr;
}

// RAII span: measures construction-to-destruction and records it under
// `name` (a string literal) if a TraceScope with a sink was installed at
// construction. While alive it is the parent of any span started on the
// same thread.
class Span {
 public:
  explicit Span(const char* name) {
    if (Trace::HasRequestContext()) Start(name);
  }
  ~Span() {
    if (name_ != nullptr) Finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t span_id() const { return span_id_; }

 private:
  // Becomes the thread's current parent / restores the previous parent
  // and appends the completed span to the thread's sink.
  void Start(const char* name);
  void Finish();

  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
};

#define FRAPPE_TRACE_CONCAT_(a, b) a##b
#define FRAPPE_TRACE_CONCAT(a, b) FRAPPE_TRACE_CONCAT_(a, b)
// Usage: FRAPPE_TRACE_SPAN("query.execute");
#define FRAPPE_TRACE_SPAN(name) \
  ::frappe::obs::Span FRAPPE_TRACE_CONCAT(frappe_trace_span_, __LINE__)(name)

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_TRACE_H_
