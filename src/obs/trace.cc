#include "obs/trace.h"

#include <atomic>
#include <chrono>

namespace frappe::obs {

namespace {

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

thread_local uint64_t tls_span_counter = 0;  // feeds NextSpanId
thread_local uint32_t tls_tid = 0;  // sequential thread number; 0 = not drawn

// This thread's sequential number (1, 2, ...): the tid of its spans and
// the tag in its span ids.
uint32_t ThreadTid() {
  static std::atomic<uint32_t> next_tid{1};
  if (tls_tid == 0) tls_tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tls_tid;
}

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

// Parses exactly `width` lowercase hex chars; false on any other byte.
bool ParseHexFixed(std::string_view s, size_t width, uint64_t* out) {
  if (s.size() < width) return false;
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    int n = HexNibble(s[i]);
    if (n < 0) return false;
    v = (v << 4) | static_cast<uint64_t>(n);
  }
  *out = v;
  return true;
}

void AppendHex(std::string* out, uint64_t v, size_t width) {
  static const char kHex[] = "0123456789abcdef";
  for (size_t i = 0; i < width; ++i) {
    out->push_back(kHex[(v >> ((width - 1 - i) * 4)) & 0xf]);
  }
}

}  // namespace

constinit thread_local TraceScope::State tls_trace_scope;

std::optional<TraceContext> ParseTraceparent(std::string_view header) {
  // "00-<32 hex>-<16 hex>-<2 hex>": 55 chars exactly.
  if (header.size() != 55) return std::nullopt;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') {
    return std::nullopt;
  }
  uint64_t version = 0;
  if (!ParseHexFixed(header.substr(0, 2), 2, &version)) return std::nullopt;
  if (version == 0xff) return std::nullopt;
  TraceContext ctx;
  if (!ParseHexFixed(header.substr(3, 16), 16, &ctx.trace_hi)) {
    return std::nullopt;
  }
  if (!ParseHexFixed(header.substr(19, 16), 16, &ctx.trace_lo)) {
    return std::nullopt;
  }
  if (!ParseHexFixed(header.substr(36, 16), 16, &ctx.span_id)) {
    return std::nullopt;
  }
  uint64_t flags = 0;
  if (!ParseHexFixed(header.substr(53, 2), 2, &flags)) return std::nullopt;
  if (!ctx.valid() || ctx.span_id == 0) return std::nullopt;
  return ctx;
}

std::string FormatTraceparent(const TraceContext& ctx) {
  std::string out = "00-";
  AppendHex(&out, ctx.trace_hi, 16);
  AppendHex(&out, ctx.trace_lo, 16);
  out.push_back('-');
  AppendHex(&out, ctx.span_id, 16);
  out += "-01";
  return out;
}

std::string TraceIdHex(uint64_t trace_hi, uint64_t trace_lo) {
  std::string out;
  out.reserve(32);
  AppendHex(&out, trace_hi, 16);
  AppendHex(&out, trace_lo, 16);
  return out;
}

std::string SpanIdHex(uint64_t span_id) {
  std::string out;
  out.reserve(16);
  AppendHex(&out, span_id, 16);
  return out;
}

bool ParseTraceIdHex(std::string_view hex, uint64_t* hi, uint64_t* lo) {
  if (hex.size() != 32) return false;
  std::string lower(hex);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'F') c = static_cast<char>(c - 'A' + 'a');
  }
  return ParseHexFixed(std::string_view(lower).substr(0, 16), 16, hi) &&
         ParseHexFixed(std::string_view(lower).substr(16, 16), 16, lo);
}

TraceContext GenerateTraceContext() {
  static std::atomic<uint64_t> counter{[] {
    auto nanos = std::chrono::steady_clock::now().time_since_epoch().count();
    static int anchor = 0;
    return static_cast<uint64_t>(nanos) ^
           Mix64(reinterpret_cast<uintptr_t>(&anchor));
  }()};
  uint64_t base = counter.fetch_add(0x9e3779b97f4a7c15ULL,
                                    std::memory_order_relaxed);
  TraceContext ctx;
  ctx.trace_hi = Mix64(base);
  ctx.trace_lo = Mix64(base + 0x9e3779b97f4a7c15ULL);
  if (ctx.trace_hi == 0) ctx.trace_hi = 1;
  if (ctx.trace_lo == 0) ctx.trace_lo = 1;
  ctx.span_id = 0;
  return ctx;
}

uint64_t Trace::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - TraceEpoch())
          .count());
}

uint64_t Trace::UnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

TraceContext Trace::CurrentContext() { return tls_trace_scope.ctx; }

uint64_t Trace::CurrentQueueWaitUs() {
  return tls_trace_scope.queue_wait_us;
}

uint64_t Trace::NextSpanId() {
  // Thread tag in the top 24 bits, local counter below: unique and nonzero
  // (tids start at 1) without any shared-state contention.
  uint32_t tid = ThreadTid();
  uint64_t counter = ++tls_span_counter;
  return (static_cast<uint64_t>(tid) << 40) | (counter & 0xffffffffffULL);
}

void Span::Start(const char* name) {
  name_ = name;
  start_us_ = Trace::NowMicros();
  span_id_ = Trace::NextSpanId();
  parent_id_ = tls_trace_scope.ctx.span_id;
  tls_trace_scope.ctx.span_id = span_id_;
}

void Span::Finish() {
  tls_trace_scope.ctx.span_id = parent_id_;
  // The scope may have been popped while this span was open.
  if (tls_trace_scope.sink == nullptr) return;
  CollectedSpan span;
  span.name = name_;
  span.tid = ThreadTid();
  span.span_id = span_id_;
  span.parent_id = parent_id_;
  span.start_us = start_us_;
  span.dur_us = Trace::NowMicros() - start_us_;
  tls_trace_scope.sink->Add(span);
}

TraceScope::TraceScope(const TraceContext& ctx, SpanCollector* sink,
                       uint64_t queue_wait_us)
    : saved_(tls_trace_scope) {
  tls_trace_scope = State{ctx, sink, queue_wait_us};
}

TraceScope::~TraceScope() { tls_trace_scope = saved_; }

}  // namespace frappe::obs
