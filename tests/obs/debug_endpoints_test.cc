// End-to-end tests for the stats server's /debug control plane: queryz,
// cancel, tracez, storagez, logz — all over real HTTP against a port-0
// server — plus the cancel integration test (start a slow query, observe
// it on /debug/queryz, POST /debug/cancel, assert Status::Cancelled
// promptly with the registry empty afterwards).
//
// Exports the fixture files tools/debugz_check.py and tools/trace_check.py
// validate from ctest: debugz_queryz.json, debugz_storagez.json,
// debugz_logz.json, tracez_export.json.

#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "extractor/synthetic.h"
#include "gtest/gtest.h"
#include "model/code_graph.h"
#include "obs/config.h"
#include "obs/fingerprint.h"
#include "obs/log.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::obs {
namespace {

// Minimal HTTP/1.0 client: one request, read to EOF (the server closes).
std::string HttpRequest(uint16_t port, const std::string& method,
                        const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = method + " " + path + " HTTP/1.0\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(uint16_t port, const std::string& path) {
  return HttpRequest(port, "GET", path);
}

std::string Body(const std::string& response) {
  size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

void ExportFixtureFile(const std::string& name, const std::string& body) {
  std::FILE* f = std::fopen(name.c_str(), "w");
  ASSERT_NE(f, nullptr) << name;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

class DebugEndpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Structured log output goes to a scratch file, not the test output.
    RuntimeConfig config;
    config.log_file = "debug_endpoints_scratch.log";
    SetConfigForTesting(config);
    Log::ResetForTesting();
    auto server = StatsServer::Start();
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override {
    server_.reset();
    StatsServer::SetStorageStatsProvider(nullptr);
    SetConfigForTesting(RuntimeConfig());
    Log::ResetForTesting();
    std::remove("debug_endpoints_scratch.log");
  }

  uint16_t port() const { return server_->port(); }

  std::unique_ptr<StatsServer> server_;
};

TEST_F(DebugEndpointsTest, QueryzListsInFlightQueries) {
  QueryRegistry::Handle active = QueryRegistry::Global().Register(
      0x0123456789abcdefull, "match (f:function) return f",
      "MATCH (f:function) RETURN f", nullptr);
  ASSERT_NE(active.entry(), nullptr);

  std::string response = HttpGet(port(), "/debug/queryz");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  std::string body = Body(response);
  EXPECT_NE(body.find("\"now_us\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"fp\": \"0123456789abcdef\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"raw\": \"MATCH (f:function) RETURN f\""),
            std::string::npos)
      << body;

  // Fixture for tools/debugz_check.py --queryz (captured with a live
  // entry, so the schema of a populated queries array is what's checked).
  ExportFixtureFile("debugz_queryz.json", body);
}

TEST_F(DebugEndpointsTest, CancelEndpointContract) {
  QueryRegistry::Handle active =
      QueryRegistry::Global().Register(7, "q", "q", nullptr);
  ASSERT_NE(active.entry(), nullptr);
  uint64_t id = active.entry()->id;

  // GET cannot cancel — a crawler or browser prefetch must be harmless.
  std::string get = HttpGet(
      port(), "/debug/cancel?id=" + std::to_string(id));
  EXPECT_NE(get.find("405"), std::string::npos) << get;
  EXPECT_FALSE(active.entry()->cancel_token->load());

  std::string post = HttpRequest(
      port(), "POST", "/debug/cancel?id=" + std::to_string(id));
  EXPECT_NE(post.find("200 OK"), std::string::npos) << post;
  EXPECT_EQ(Body(post), "{\"cancelled\": " + std::to_string(id) + "}\n");
  EXPECT_TRUE(active.entry()->cancel_token->load());

  // Missing / malformed / unknown ids are distinct, all JSON.
  std::string missing = HttpRequest(port(), "POST", "/debug/cancel");
  EXPECT_NE(missing.find("400"), std::string::npos) << missing;
  EXPECT_NE(missing.find("application/json"), std::string::npos);
  std::string bad = HttpRequest(port(), "POST", "/debug/cancel?id=banana");
  EXPECT_NE(bad.find("400"), std::string::npos) << bad;
  std::string unknown =
      HttpRequest(port(), "POST", "/debug/cancel?id=999999999");
  EXPECT_NE(unknown.find("404"), std::string::npos) << unknown;
}

TEST_F(DebugEndpointsTest, StoragezServesTable4Breakdown) {
  // No provider registered: an embedder without a graph store gets a clean
  // JSON 404, not an empty page.
  StatsServer::SetStorageStatsProvider(nullptr);
  std::string absent = HttpGet(port(), "/debug/storagez");
  EXPECT_NE(absent.find("404"), std::string::npos) << absent;
  EXPECT_NE(absent.find("application/json"), std::string::npos);

  query::testing::PaperFixture fixture;
  const graph::GraphStore& store = fixture.graph.store();
  StatsServer::SetStorageStatsProvider(
      [&store]() -> StatsServer::StorageSections {
        graph::GraphStore::MemoryBreakdown m = store.EstimateMemory();
        return {{"nodes", m.nodes},
                {"relationships", m.relationships},
                {"properties", m.properties}};
      });
  std::string response = HttpGet(port(), "/debug/storagez");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  std::string body = Body(response);
  EXPECT_NE(body.find("\"sections\": {"), std::string::npos) << body;
  EXPECT_NE(body.find("\"nodes\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"relationships\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"properties\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"total\": "), std::string::npos) << body;
  ExportFixtureFile("debugz_storagez.json", body);

  // The same sections surface as gauges on /metrics, refreshed per scrape.
  std::string metrics = Body(HttpGet(port(), "/metrics"));
  EXPECT_NE(metrics.find("# TYPE frappe_storage_bytes gauge"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("frappe_storage_bytes{section=\"nodes\"} "),
            std::string::npos)
      << metrics;
  StatsServer::SetStorageStatsProvider(nullptr);
}

TEST_F(DebugEndpointsTest, LogzServesTheRecentRing) {
  Log::SetThreshold(LogLevel::kInfo);
  LogWarn("debugz", "something to see on logz");
  std::string response = HttpGet(port(), "/debug/logz");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  std::string body = Body(response);
  EXPECT_NE(body.find("\"entries\": ["), std::string::npos) << body;
  EXPECT_NE(body.find("\"component\": \"debugz\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"message\": \"something to see on logz\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"dropped\": "), std::string::npos) << body;
  ExportFixtureFile("debugz_logz.json", body);
}

TEST_F(DebugEndpointsTest, TracezServesARetainedSessionTree) {
  // A real Session::Run under a TraceScope + SpanCollector, retained the
  // way the query server retains a tail request.
  query::testing::PaperFixture fixture;
  query::Session session(fixture.graph);
  SpanCollector sink;
  const TraceContext ctx = GenerateTraceContext();
  {
    TraceScope scope(ctx, &sink);
    ASSERT_TRUE(session.Run("MATCH (f:function) RETURN f").ok());
  }
  StoredTrace retained;
  retained.trace_hi = ctx.trace_hi;
  retained.trace_lo = ctx.trace_lo;
  retained.reason = "requested";
  retained.status = "ok";
  retained.spans = sink.TakeSpans();
  ASSERT_FALSE(retained.spans.empty());
  TraceStore::Global().Retain(retained);

  auto start = std::chrono::steady_clock::now();
  std::string response =
      HttpGet(port(), "/debug/tracez?trace_id=" + TraceIdHex(ctx));
  double waited_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  EXPECT_LT(waited_ms, 2000.0) << "tracez blocked the serving thread";
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  std::string body = Body(response);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos) << body;
  EXPECT_NE(body.find("session.run"), std::string::npos) << body;
  // Chrome-trace validity is checked by tools/trace_check.py from ctest.
  ExportFixtureFile("tracez_export.json", body);

  // The old ?ms= capture window is gone: 400, pointing at ?trace_id=.
  std::string gone = HttpGet(port(), "/debug/tracez?ms=5000");
  EXPECT_NE(gone.find("400"), std::string::npos) << gone;
  EXPECT_NE(gone.find("?trace_id="), std::string::npos) << gone;
  TraceStore::Global().Clear();
}

TEST_F(DebugEndpointsTest, TracezServesRetainedTracesById) {
  TraceStore& store = TraceStore::Global();
  store.Clear();
  StoredTrace retained;
  retained.trace_hi = 0x0123456789abcdefull;
  retained.trace_lo = 0xfedcba9876543210ull;
  retained.reason = "slow";
  retained.status = "ok";
  retained.fingerprint = "00000000deadbeef";
  retained.ts_us = 1;
  retained.latency_ms = 12.5;
  CollectedSpan root;
  root.name = "server.request";
  root.span_id = 0x10;
  root.parent_id = 0;
  root.start_us = 100;
  root.dur_us = 500;
  CollectedSpan child;
  child.name = "server.queue_wait";
  child.span_id = 0x11;
  child.parent_id = 0x10;
  child.start_us = 100;
  child.dur_us = 40;
  retained.spans = {root, child};
  store.Retain(retained);

  // The index lists the retained tail, newest first.
  std::string index = HttpGet(port(), "/debug/tracez");
  EXPECT_NE(index.find("200 OK"), std::string::npos) << index;
  std::string index_body = Body(index);
  EXPECT_NE(index_body.find("\"retained\": 1"), std::string::npos)
      << index_body;
  EXPECT_NE(index_body.find("0123456789abcdeffedcba9876543210"),
            std::string::npos)
      << index_body;
  EXPECT_NE(index_body.find("\"reason\": \"slow\""), std::string::npos)
      << index_body;

  // Lookup by trace id serves the span tree as Chrome trace events.
  std::string by_id = HttpGet(
      port(), "/debug/tracez?trace_id=0123456789abcdeffedcba9876543210");
  EXPECT_NE(by_id.find("200 OK"), std::string::npos) << by_id;
  std::string tree = Body(by_id);
  EXPECT_NE(tree.find("\"traceEvents\""), std::string::npos) << tree;
  EXPECT_NE(tree.find("server.request"), std::string::npos) << tree;
  EXPECT_NE(tree.find("server.queue_wait"), std::string::npos) << tree;
  EXPECT_NE(tree.find("0123456789abcdeffedcba9876543210"), std::string::npos)
      << tree;

  // Malformed ids are 400, unknown-but-well-formed ids are 404 — both JSON.
  std::string bad = HttpGet(port(), "/debug/tracez?trace_id=xyz");
  EXPECT_NE(bad.find("400"), std::string::npos) << bad;
  EXPECT_NE(bad.find("application/json"), std::string::npos) << bad;
  std::string unknown = HttpGet(
      port(), "/debug/tracez?trace_id=00000000000000000000000000000001");
  EXPECT_NE(unknown.find("404"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("application/json"), std::string::npos) << unknown;
  store.Clear();
}

TEST_F(DebugEndpointsTest, ErrorResponsesAreNormalizedJson) {
  std::string unknown = HttpGet(port(), "/nope");
  EXPECT_NE(unknown.find("404 Not Found"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("Content-Type: application/json"),
            std::string::npos)
      << unknown;
  std::string body = Body(unknown);
  EXPECT_NE(body.find("\"error\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"status\": 404"), std::string::npos) << body;

  std::string bad_method = HttpRequest(port(), "DELETE", "/healthz");
  EXPECT_NE(bad_method.find("405 Method Not Allowed"), std::string::npos)
      << bad_method;
  EXPECT_NE(bad_method.find("Content-Type: application/json"),
            std::string::npos)
      << bad_method;
  EXPECT_NE(Body(bad_method).find("\"status\": 405"), std::string::npos);
}

// The acceptance integration test: a slow query on a generated kernel
// graph becomes visible on /debug/queryz, is killed via POST
// /debug/cancel, and lands Status::Cancelled within 250 ms — with the
// registry empty afterwards.
TEST_F(DebugEndpointsTest, CancelOverHttpKillsARunningQuery) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.02;
  extractor::GenerateKernelGraph(scale, &graph);
  query::Session session(graph);

  // A function with outgoing calls: the slow-path (edge-distinct path
  // enumeration) closure from it runs effectively forever at this scale.
  graph::TypeId calls = graph.schema().edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = graph.schema().key(model::PropKey::kShortName);
  std::string seed;
  const graph::GraphView& view = graph.view();
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound() && seed.empty();
       ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    seed = std::string(view.GetNodeString(view.GetEdge(e).src, short_name));
  }
  ASSERT_FALSE(seed.empty());
  std::string query = "START n=node:node_auto_index('short_name: " + seed +
                      "') MATCH n -[:calls*]-> m RETURN distinct m";

  Result<query::QueryResult> result = Status::Internal("never ran");
  std::chrono::steady_clock::time_point finished;
  std::thread runner([&] {
    query::ExecOptions options;
    options.use_csr_fast_path = false;
    options.deadline_ms = 60000;  // a broken cancel fails, not hangs
    result = session.Run(query, options);
    finished = std::chrono::steady_clock::now();
  });

  // Observe the query on /debug/queryz and pull its id out of the JSON.
  uint64_t id = 0;
  for (int i = 0; i < 5000 && id == 0; ++i) {
    std::string body = Body(HttpGet(port(), "/debug/queryz"));
    if (body.find(seed) != std::string::npos) {
      size_t at = body.find("\"id\": ");
      if (at != std::string::npos) {
        id = std::strtoull(body.c_str() + at + 6, nullptr, 10);
      }
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "query never showed up on /debug/queryz";

  std::string cancel = HttpRequest(
      port(), "POST", "/debug/cancel?id=" + std::to_string(id));
  std::chrono::steady_clock::time_point cancel_sent =
      std::chrono::steady_clock::now();
  EXPECT_NE(cancel.find("200 OK"), std::string::npos) << cancel;
  runner.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  double cancel_latency_ms =
      std::chrono::duration<double, std::milli>(finished - cancel_sent)
          .count();
  EXPECT_LE(cancel_latency_ms, 250.0)
      << "cancellation took " << cancel_latency_ms << " ms";
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

}  // namespace
}  // namespace frappe::obs
