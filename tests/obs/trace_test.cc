// Span tracing through a TraceScope + SpanCollector: nothing records
// without a scope, nested spans all record, threads sharing a collector get
// distinct tids, and TraceStore::TraceJson exports a real Figure 6 run —
// the file the `trace_check` ctest entry validates with
// tools/trace_check.py.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_store.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::obs {
namespace {

TEST(TraceTest, DisabledSpansRecordNothing) {
  SpanCollector sink;
  {
    FRAPPE_TRACE_SPAN("test.disabled");
  }
  // A scope with no sink traces nothing either.
  {
    TraceScope scope(GenerateTraceContext(), nullptr);
    FRAPPE_TRACE_SPAN("test.no_sink");
  }
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceTest, SpansNestAndAllRecord) {
  SpanCollector sink;
  {
    TraceScope scope(GenerateTraceContext(), &sink);
    FRAPPE_TRACE_SPAN("test.outer");
    {
      FRAPPE_TRACE_SPAN("test.inner");
    }
  }
  std::vector<CollectedSpan> spans = sink.TakeSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(std::string(spans[0].name), "test.inner");
  EXPECT_EQ(std::string(spans[1].name), "test.outer");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
}

TEST(TraceTest, ThreadsSharingACollectorGetDistinctTids) {
  SpanCollector sink;
  const TraceContext ctx = GenerateTraceContext();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TraceScope scope(ctx, &sink);
      FRAPPE_TRACE_SPAN("test.thread");
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<CollectedSpan> spans = sink.TakeSpans();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads));
  std::set<uint32_t> tids;
  std::set<uint64_t> span_ids;
  for (const CollectedSpan& span : spans) {
    tids.insert(span.tid);
    span_ids.insert(span.span_id);
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(span_ids.size(), static_cast<size_t>(kThreads));
}

// Runs the paper's Figure 6 transitive-closure query (both execution
// paths) under one TraceScope and exports the collected tree next to the
// test binary; the `trace_check` ctest entry validates that file with
// tools/trace_check.py, parentage included.
TEST(TraceTest, Figure6QueryTraceExportsValidFile) {
  query::testing::PaperFixture fixture;
  query::Session session(fixture.graph);
  const std::string fig6 =
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m";

  SpanCollector sink;
  const TraceContext ctx = GenerateTraceContext();
  {
    TraceScope scope(ctx, &sink);
    FRAPPE_TRACE_SPAN("test.figure6");  // one root over both runs
    for (bool fast_path : {true, false}) {
      query::ExecOptions options;
      options.use_csr_fast_path = fast_path;
      auto result = session.Run(fig6, options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->rows.size(), 4u);
    }
  }
  StoredTrace trace;
  trace.trace_hi = ctx.trace_hi;
  trace.trace_lo = ctx.trace_lo;
  trace.reason = "requested";
  trace.status = "ok";
  trace.dropped_spans = sink.dropped();
  trace.spans = sink.TakeSpans();
  ASSERT_GT(trace.spans.size(), 0u);
  EXPECT_EQ(trace.dropped_spans, 0u);

  // Session, executor and (fast path only) analytics layers must all have
  // contributed spans.
  std::string json = TraceStore::TraceJson(trace);
  for (const char* name :
       {"session.run", "session.parse", "session.execute", "query.execute",
        "executor.start", "executor.match", "executor.return",
        "executor.csr_closure", "analytics.run"}) {
    EXPECT_NE(json.find(name), std::string::npos) << "missing span " << name;
  }

  std::FILE* f = std::fopen("trace_export.json", "w");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(json.data(), 1, json.size(), f), json.size());
  std::fclose(f);
}

}  // namespace
}  // namespace frappe::obs
