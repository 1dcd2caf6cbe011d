// Unit tests for the request-tracing primitives: W3C traceparent
// parsing/formatting, trace/span id hex codecs, the per-request
// SpanCollector, the TraceScope thread-state plumbing, and the bounded
// tail-sampled TraceStore.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "obs/trace_store.h"

namespace frappe::obs {
namespace {

constexpr char kValid[] =
    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";

TEST(TraceparentTest, ParsesAValidHeader) {
  auto ctx = ParseTraceparent(kValid);
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->trace_hi, 0x4bf92f3577b34da6ull);
  EXPECT_EQ(ctx->trace_lo, 0xa3ce929d0e0e4736ull);
  EXPECT_EQ(ctx->span_id, 0x00f067aa0ba902b7ull);
  EXPECT_TRUE(ctx->valid());
}

TEST(TraceparentTest, RejectsEveryMalformedShape) {
  const char* kBad[] = {
      "",
      "garbage",
      // Truncated / overlong.
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-012",
      // Wrong delimiters.
      "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",
      // Non-hex and uppercase (the spec requires lowercase).
      "00-zbf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
      // Version 0xff is forbidden.
      "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      // All-zero trace id / span id are invalid.
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
  };
  for (const char* header : kBad) {
    EXPECT_FALSE(ParseTraceparent(header).has_value()) << header;
  }
}

TEST(TraceparentTest, FutureVersionsStillParse) {
  // Per the spec, an unknown (non-ff) version with the 00-shaped tail is
  // accepted so traces survive intermediaries newer than this code.
  std::string header(kValid);
  header[0] = '4';
  header[1] = '2';
  EXPECT_TRUE(ParseTraceparent(header).has_value());
}

TEST(TraceparentTest, FormatRoundTrips) {
  auto ctx = ParseTraceparent(kValid);
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(FormatTraceparent(*ctx), kValid);
  auto again = ParseTraceparent(FormatTraceparent(*ctx));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->trace_hi, ctx->trace_hi);
  EXPECT_EQ(again->trace_lo, ctx->trace_lo);
  EXPECT_EQ(again->span_id, ctx->span_id);
}

TEST(TraceparentTest, HexCodecsRoundTrip) {
  EXPECT_EQ(TraceIdHex(0x4bf92f3577b34da6ull, 0xa3ce929d0e0e4736ull),
            "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_EQ(SpanIdHex(0x00f067aa0ba902b7ull), "00f067aa0ba902b7");
  EXPECT_EQ(SpanIdHex(0), "0000000000000000");
  uint64_t hi = 0, lo = 0;
  ASSERT_TRUE(
      ParseTraceIdHex("4bf92f3577b34da6a3ce929d0e0e4736", &hi, &lo));
  EXPECT_EQ(hi, 0x4bf92f3577b34da6ull);
  EXPECT_EQ(lo, 0xa3ce929d0e0e4736ull);
  EXPECT_FALSE(ParseTraceIdHex("4bf92f3577b34da6", &hi, &lo));  // short
  EXPECT_FALSE(
      ParseTraceIdHex("4bf92f3577b34da6a3ce929d0e0e473g", &hi, &lo));
}

TEST(TraceparentTest, GeneratedContextsAreValidAndDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < 64; ++i) {
    TraceContext ctx = GenerateTraceContext();
    EXPECT_TRUE(ctx.valid());
    // span_id stays 0: a minted context has no remote parent — the server
    // allocates its own root span id on top.
    EXPECT_EQ(ctx.span_id, 0u);
    seen.insert(TraceIdHex(ctx));
  }
  EXPECT_EQ(seen.size(), 64u) << "generated trace ids collided";
}

TEST(SpanCollectorTest, CollectsUpToCapacityThenCountsDrops) {
  SpanCollector collector(/*capacity=*/4);
  CollectedSpan span;
  span.name = "s";
  for (int i = 0; i < 7; ++i) {
    span.span_id = static_cast<uint64_t>(i + 1);
    collector.Add(span);
  }
  EXPECT_EQ(collector.size(), 4u);
  EXPECT_EQ(collector.dropped(), 3u);
  std::vector<CollectedSpan> spans = collector.TakeSpans();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(collector.size(), 0u);
}

TEST(TraceScopeTest, InstallsContextAndCollectsParentedSpans) {
  ASSERT_FALSE(Trace::HasRequestContext());
  EXPECT_FALSE(Trace::CurrentContext().valid());

  TraceContext ctx;
  ctx.trace_hi = 0x1111;
  ctx.trace_lo = 0x2222;
  ctx.span_id = 0x3333;
  SpanCollector sink;
  {
    TraceScope scope(ctx, &sink, /*queue_wait_us=*/42);
    EXPECT_TRUE(Trace::HasRequestContext());
    EXPECT_EQ(Trace::CurrentContext().trace_hi, 0x1111u);
    EXPECT_EQ(Trace::CurrentQueueWaitUs(), 42u);
    {
      Span outer("outer");
      Span inner("inner");
      EXPECT_NE(inner.span_id(), outer.span_id());
    }
  }
  // The scope is popped: spans no longer record, context is gone.
  EXPECT_FALSE(Trace::HasRequestContext());
  EXPECT_EQ(Trace::CurrentQueueWaitUs(), 0u);

  std::vector<CollectedSpan> spans = sink.TakeSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order: inner recorded first, then outer.
  EXPECT_EQ(std::string_view(spans[0].name), "inner");
  EXPECT_EQ(std::string_view(spans[1].name), "outer");
  EXPECT_EQ(spans[1].parent_id, 0x3333u);  // outer parents under the root
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);  // inner under outer
}

TEST(TraceScopeTest, NoSpansRecordedWithoutScope) {
  ASSERT_FALSE(Trace::HasRequestContext());
  SpanCollector sink;
  {
    Span span("ignored");
    EXPECT_EQ(span.span_id(), 0u);
  }
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceStoreTest, RetainLookupReplaceAndEvict) {
  TraceStore store(/*capacity=*/2);
  StoredTrace a;
  a.trace_hi = 1;
  a.trace_lo = 1;
  a.reason = "slow";
  a.latency_ms = 10;
  store.Retain(a);
  StoredTrace out;
  ASSERT_TRUE(store.Lookup(1, 1, &out));
  EXPECT_EQ(out.reason, "slow");
  EXPECT_FALSE(store.Lookup(9, 9, &out));

  // Same trace id replaces rather than duplicating.
  a.reason = "error";
  store.Retain(a);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.Lookup(1, 1, &out));
  EXPECT_EQ(out.reason, "error");

  // Past capacity the oldest retained trace is evicted.
  StoredTrace b = a;
  b.trace_lo = 2;
  store.Retain(b);
  StoredTrace c = a;
  c.trace_lo = 3;
  store.Retain(c);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evicted(), 1u);
  EXPECT_FALSE(store.Lookup(1, 1, &out));
  EXPECT_TRUE(store.Lookup(1, 2, &out));
  EXPECT_TRUE(store.Lookup(1, 3, &out));
}

TEST(TraceStoreTest, IndexAndTraceJsonCarryIdentity) {
  TraceStore store;
  StoredTrace t;
  t.trace_hi = 0x4bf92f3577b34da6ull;
  t.trace_lo = 0xa3ce929d0e0e4736ull;
  t.reason = "requested";
  t.status = "ok";
  t.fingerprint = "0123456789abcdef";
  t.latency_ms = 1.5;
  CollectedSpan span;
  span.name = "server.request";
  span.span_id = 7;
  span.start_us = 10;
  span.dur_us = 20;
  t.spans.push_back(span);
  store.Retain(t);

  std::string index = store.IndexJson();
  EXPECT_NE(index.find("\"retained\": 1"), std::string::npos) << index;
  EXPECT_NE(index.find("4bf92f3577b34da6a3ce929d0e0e4736"),
            std::string::npos)
      << index;
  EXPECT_NE(index.find("\"reason\": \"requested\""), std::string::npos)
      << index;

  std::string tree = TraceStore::TraceJson(t);
  EXPECT_NE(tree.find("\"traceEvents\""), std::string::npos) << tree;
  EXPECT_NE(tree.find("server.request"), std::string::npos) << tree;
  EXPECT_NE(tree.find("\"span_id\": \"0000000000000007\""),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("4bf92f3577b34da6a3ce929d0e0e4736"),
            std::string::npos)
      << tree;
}

}  // namespace
}  // namespace frappe::obs
