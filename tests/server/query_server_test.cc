// The query front door end to end over real HTTP: response schema, the
// exact bytes of the paper queries' rows, error mapping, per-request
// deadlines, admission-control shedding with Retry-After, the
// liveness/readiness split, and request tracing (traceparent
// adoption/echo, per-query timeline, tail-sampled trace retention). Exports capture files (server_query.json,
// server_overload.http, server_readyz_*.json, server_trace.json) that
// tools/server_check.py and tools/trace_check.py validate from ctest.

#include "server/query_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "extractor/synthetic.h"
#include "model/code_graph.h"
#include "obs/config.h"
#include "obs/http_listener.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/readiness.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "server/epoch.h"
#include "tests/query/fixture.h"

namespace frappe::server {
namespace {

using obs::HttpBodyOf;
using obs::HttpFetch;
using obs::HttpHeaderOf;
using obs::HttpStatusOf;

// Pulls the integer after `"key": ` out of a JSON body; -1 when absent.
// Enough JSON parsing for the flat timeline object the server emits.
int64_t JsonInt(std::string_view body, const std::string& key) {
  std::string needle = "\"" + key + "\": ";
  size_t at = body.find(needle);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(body.data() + at + needle.size(), nullptr, 10);
}

// One shared epoch manager with a generated kernel-shaped graph: big
// enough that a slow-path closure query outlasts any short deadline.
EpochManager& Epochs() {
  static EpochManager* epochs = [] {
    auto* e = new EpochManager();
    auto graph = std::make_unique<model::CodeGraph>();
    extractor::GraphScale scale;
    scale.factor = 0.02;
    extractor::GenerateKernelGraph(scale, graph.get());
    auto published = e->Publish(std::move(graph), "test kernel");
    if (!published.ok()) std::abort();
    return e;
  }();
  return *epochs;
}

// A function with outgoing calls: `-[:calls*]->` from it does real work.
std::string ClosureSeedName() {
  std::shared_ptr<const Epoch> epoch = Epochs().Current();
  const graph::GraphView& view = epoch->view();
  const model::Schema& schema = epoch->code_graph->schema();
  graph::TypeId calls = schema.edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = schema.key(model::PropKey::kShortName);
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    std::string_view name =
        view.GetNodeString(view.GetEdge(e).src, short_name);
    if (!name.empty()) return std::string(name);
  }
  return "";
}

std::string SlowClosureQuery() {
  return "START n=node:node_auto_index('short_name: " + ClosureSeedName() +
         "') MATCH n -[:calls*]-> m RETURN distinct m";
}

void WriteCapture(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Readiness::Global().ResetForTesting();
    auto server = QueryServer::Start({}, &Epochs());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    port_ = server_->port();
    ASSERT_GT(port_, 0);
  }
  void TearDown() override {
    server_->Stop();
    obs::Readiness::Global().ResetForTesting();
  }

  std::unique_ptr<QueryServer> server_;
  uint16_t port_ = 0;
};

TEST_F(QueryServerTest, QueryAnswersJsonRowsWithStatsAndEpoch) {
  std::string response = HttpFetch(port_, "POST", "/query",
                                   "MATCH (f:function) RETURN count(*)");
  ASSERT_EQ(HttpStatusOf(response), 200) << response;
  std::string body(HttpBodyOf(response));
  EXPECT_NE(body.find("\"columns\": ["), std::string::npos) << body;
  EXPECT_NE(body.find("\"rows\": ["), std::string::npos) << body;
  EXPECT_NE(body.find("\"stats\": {"), std::string::npos) << body;
  EXPECT_NE(body.find("\"elapsed_ms\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"db_hits\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"epoch\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"trace_id\": \""), std::string::npos) << body;
  EXPECT_NE(body.find("\"timeline\": {"), std::string::npos) << body;
  // Resource attribution rides on every response (schema checked in depth
  // by tools/server_check.py against this capture).
  EXPECT_NE(body.find("\"cpu_us\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"alloc_bytes\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"peak_bytes\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"scanned_bytes\": "), std::string::npos) << body;
  WriteCapture("server_query.json", body);
}

TEST_F(QueryServerTest, TraceparentIsAdoptedAndEchoed) {
  // A W3C traceparent on the request: the response must carry the same
  // trace id — in the echoed traceparent header and the body's trace_id —
  // with the server's own root span id (not the client's) in the header.
  std::string response = HttpFetch(
      port_, "POST", "/query", "MATCH (f:function) RETURN count(*)", 5000,
      "traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
      "\r\n");
  ASSERT_EQ(HttpStatusOf(response), 200) << response;
  std::string echoed(HttpHeaderOf(response, "traceparent"));
  ASSERT_EQ(echoed.size(), 55u) << echoed;
  EXPECT_EQ(echoed.substr(0, 3), "00-");
  EXPECT_EQ(echoed.substr(3, 32), "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_NE(echoed.substr(36, 16), "00f067aa0ba902b7");
  EXPECT_NE(HttpBodyOf(response).find(
                "\"trace_id\": \"4bf92f3577b34da6a3ce929d0e0e4736\""),
            std::string::npos)
      << response;
}

TEST_F(QueryServerTest, MalformedTraceparentMintsAFreshIdNever4xx) {
  // Bad telemetry headers must never fail the query: each of these gets a
  // 200 with a server-minted trace id, echoed back well-formed.
  const char* kMalformed[] = {
      "traceparent: garbage\r\n",
      "traceparent: 00-zzzz2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
      "\r\n",
      // All-zero trace id and version 0xff are invalid per the W3C spec.
      "traceparent: 00-00000000000000000000000000000000-00f067aa0ba902b7-01"
      "\r\n",
      "traceparent: ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
      "\r\n",
      "traceparent: 00-4bf92f3577b34da6\r\n",
  };
  for (const char* header : kMalformed) {
    std::string response =
        HttpFetch(port_, "POST", "/query",
                  "MATCH (f:function) RETURN count(*)", 5000, header);
    ASSERT_EQ(HttpStatusOf(response), 200) << header << "\n" << response;
    std::string echoed(HttpHeaderOf(response, "traceparent"));
    ASSERT_EQ(echoed.size(), 55u) << header << " -> " << echoed;
    std::string trace_id = echoed.substr(3, 32);
    EXPECT_NE(trace_id, "00000000000000000000000000000000") << header;
    EXPECT_NE(trace_id, "4bf92f3577b34da6a3ce929d0e0e4736") << header;
    // Body and header agree on the minted id.
    EXPECT_NE(
        HttpBodyOf(response).find("\"trace_id\": \"" + trace_id + "\""),
        std::string::npos)
        << header << "\n" << response;
  }
}

TEST_F(QueryServerTest, TimelineComponentsAccountForTheTotal) {
  // A query with real execution and serialization work: the attributed
  // components must account for the wall latency — the whole point of the
  // timeline is that nothing material hides between the phases.
  std::string response = HttpFetch(port_, "POST", "/query",
                                   "MATCH (f:function) RETURN f", 15000);
  ASSERT_EQ(HttpStatusOf(response), 200) << response;
  std::string_view body = HttpBodyOf(response);
  int64_t queue_us = JsonInt(body, "queue_us");
  int64_t parse_us = JsonInt(body, "parse_us");
  int64_t plan_us = JsonInt(body, "plan_us");
  int64_t exec_us = JsonInt(body, "exec_us");
  int64_t serialize_us = JsonInt(body, "serialize_us");
  int64_t total_us = JsonInt(body, "total_us");
  ASSERT_GE(queue_us, 0) << body;
  ASSERT_GE(parse_us, 0) << body;
  ASSERT_GE(plan_us, 0) << body;
  ASSERT_GE(exec_us, 0) << body;
  ASSERT_GE(serialize_us, 0) << body;
  ASSERT_GT(total_us, 0) << body;
  int64_t sum = queue_us + parse_us + plan_us + exec_us + serialize_us;
  EXPECT_LE(sum, total_us) << body;
  EXPECT_GE(sum, total_us - total_us / 10)
      << "phases sum to " << sum << "us but the request took " << total_us
      << "us — more than 10% unattributed: " << body;
}

TEST_F(QueryServerTest, RequestedTraceIsRetainedWithParentedSpans) {
  obs::TraceStore::Global().Clear();
  // A client-traced closure query: the CSR fast path dispatches the
  // frontier engine, so the retained tree holds queue-wait, session,
  // executor and per-level analytics spans.
  std::string response = HttpFetch(
      port_, "POST", "/query", SlowClosureQuery(), 15000,
      "traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
      "\r\n");
  ASSERT_EQ(HttpStatusOf(response), 200) << response;

  uint64_t hi = 0, lo = 0;
  ASSERT_TRUE(obs::ParseTraceIdHex("0af7651916cd43dd8448eb211c80319c", &hi,
                                   &lo));
  obs::StoredTrace stored;
  ASSERT_TRUE(obs::TraceStore::Global().Lookup(hi, lo, &stored))
      << "client-traced query was not retained";
  EXPECT_EQ(stored.reason, "requested");
  EXPECT_EQ(stored.status, "ok");

  const obs::CollectedSpan* root = nullptr;
  for (const obs::CollectedSpan& span : stored.spans) {
    if (std::string_view(span.name) == "server.request") root = &span;
  }
  ASSERT_NE(root, nullptr) << "no server.request root span";
  // The root parents under the client's span from the traceparent.
  EXPECT_EQ(root->parent_id, 0xb7ad6b7169203331ull);
  bool queue_wait = false, exec = false;
  int analytics_levels = 0;
  for (const obs::CollectedSpan& span : stored.spans) {
    std::string_view name(span.name);
    if (name == "server.queue_wait") {
      queue_wait = true;
      EXPECT_EQ(span.parent_id, root->span_id);
    }
    if (name == "session.run") {
      EXPECT_EQ(span.parent_id, root->span_id);
    }
    if (name == "session.execute") exec = true;
    if (name == "analytics.level") {
      ++analytics_levels;
      EXPECT_NE(span.parent_id, 0u);
    }
  }
  EXPECT_TRUE(queue_wait) << "no server.queue_wait span";
  EXPECT_TRUE(exec) << "no session.execute span";
  EXPECT_GE(analytics_levels, 1) << "no analytics.level spans";

  // End to end: the stats server serves the same tree by trace id, and
  // the export feeds tools/trace_check.py --parentage from ctest.
  auto stats = obs::StatsServer::Start();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::string tree = HttpFetch(
      (*stats)->port(), "GET",
      "/debug/tracez?trace_id=0af7651916cd43dd8448eb211c80319c");
  EXPECT_EQ(HttpStatusOf(tree), 200) << tree;
  std::string tree_body(HttpBodyOf(tree));
  EXPECT_NE(tree_body.find("server.request"), std::string::npos)
      << tree_body;
  EXPECT_NE(tree_body.find("server.queue_wait"), std::string::npos)
      << tree_body;
  EXPECT_NE(tree_body.find("analytics.level"), std::string::npos)
      << tree_body;
  WriteCapture("server_trace.json", tree_body);
  (*stats)->Stop();
}

TEST_F(QueryServerTest, HealthzAndReadyz) {
  std::string health = HttpFetch(port_, "GET", "/healthz");
  EXPECT_EQ(HttpStatusOf(health), 200);
  EXPECT_EQ(HttpBodyOf(health), "ok\n");

  std::string ready = HttpFetch(port_, "GET", "/readyz");
  EXPECT_EQ(HttpStatusOf(ready), 200) << ready;
  EXPECT_NE(HttpBodyOf(ready).find("\"state\": \"ready\""),
            std::string::npos)
      << ready;
  WriteCapture("server_readyz_ready.json", HttpBodyOf(ready));
}

TEST_F(QueryServerTest, ErrorMapping) {
  // Parse error -> 400 with the status-code name in the JSON body.
  std::string response =
      HttpFetch(port_, "POST", "/query", "MATCH (broken");
  EXPECT_EQ(HttpStatusOf(response), 400) << response;
  EXPECT_NE(HttpBodyOf(response).find("\"code\": "), std::string::npos)
      << response;

  // Empty body -> 400.
  EXPECT_EQ(HttpStatusOf(HttpFetch(port_, "POST", "/query", "")), 400);

  // Unknown path -> 404; /query with GET -> 405.
  EXPECT_EQ(HttpStatusOf(HttpFetch(port_, "GET", "/nope")), 404);
  EXPECT_EQ(HttpStatusOf(HttpFetch(port_, "GET", "/query")), 405);

  // Bad parameter -> 400.
  EXPECT_EQ(HttpStatusOf(HttpFetch(port_, "POST",
                                   "/query?deadline_ms=banana",
                                   "MATCH (f:function) RETURN f")),
            400);
}

TEST_F(QueryServerTest, OutOfRangeFloatIs400AndTheServerKeepsServing) {
  // A float literal past the double range is a parse error, not an
  // uncaught exception that takes the process down.
  std::string response = HttpFetch(
      port_, "POST", "/query",
      "MATCH (n) WHERE n.x > 1" + std::string(400, '0') + ".5 RETURN n");
  EXPECT_EQ(HttpStatusOf(response), 400) << response;
  EXPECT_NE(HttpBodyOf(response).find("ParseError"), std::string::npos)
      << response;
  // The body quotes the literal cut short, not its 400 digits.
  EXPECT_LE(HttpBodyOf(response).size(), 160u) << response;
  EXPECT_EQ(HttpStatusOf(HttpFetch(port_, "POST", "/query",
                                   "MATCH (f:function) RETURN count(*)")),
            200);
}

TEST_F(QueryServerTest, DeadlinePropagatesIntoExecution) {
  // A 30ms budget on a slow-path closure query: the executor's deadline
  // poll must end it, mapped to 408 Request Timeout.
  std::string response =
      HttpFetch(port_, "POST", "/query?deadline_ms=30&fast_path=0",
                SlowClosureQuery(), /*timeout_ms=*/15000);
  EXPECT_EQ(HttpStatusOf(response), 408) << response;
  EXPECT_NE(HttpBodyOf(response).find("DeadlineExceeded"),
            std::string::npos)
      << response;
}

TEST_F(QueryServerTest, MemoryBudgetMapsTo413) {
  // A tight FRAPPE_QUERY_MEM_BYTES cap on a slow-path closure query: the
  // executor's budget poll trips kResourceExhausted, mapped to 413
  // Payload Too Large at the front door. The deadline is a backstop so a
  // broken budget fails, not hangs.
  obs::RuntimeConfig config;
  config.query_mem_bytes = 262144;
  obs::SetConfigForTesting(config);
  std::string response =
      HttpFetch(port_, "POST", "/query?deadline_ms=60000&fast_path=0",
                SlowClosureQuery(), /*timeout_ms=*/90000);
  obs::SetConfigForTesting(obs::RuntimeConfig());
  EXPECT_EQ(HttpStatusOf(response), 413) << response;
  EXPECT_NE(HttpBodyOf(response).find("ResourceExhausted"),
            std::string::npos)
      << response;
}

// Golden /query bodies: the `columns` + `rows` JSON of the paper's queries
// (Figs. 3-6, Table 6) and of every cell kind, byte for byte, on the
// miniature paper fixture. The fixture gains one function whose short
// name holds a quote, a backslash, a newline and a 0x01 byte; Fig. 6
// reaches it. The expected bodies are written out by hand.
class QueryServerGoldenTest : public ::testing::Test {
 protected:
  static EpochManager& GoldenEpochs() {
    static EpochManager* epochs = [] {
      auto* e = new EpochManager();
      query::testing::PaperFixture fixture;
      graph::NodeId odd = fixture.graph.AddNode(model::NodeKind::kFunction,
                                                "odd\"na\\me\nx\x01");
      fixture.AddCall(fixture.sr_do_ioctl, odd, 160);
      auto published = e->Publish(
          std::make_unique<model::CodeGraph>(std::move(fixture.graph)),
          "paper fixture");
      if (!published.ok()) std::abort();
      return e;
    }();
    return *epochs;
  }

  void SetUp() override {
    obs::Readiness::Global().ResetForTesting();
    auto server = QueryServer::Start({}, &GoldenEpochs());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }
  void TearDown() override {
    server_->Stop();
    obs::Readiness::Global().ResetForTesting();
  }

  // The body of a 200 answer up to its stats: `{"columns": [...],
  // "rows": [...]`.
  std::string ColumnsAndRows(const std::string& query,
                             const std::string& path = "/query") {
    std::string response = HttpFetch(server_->port(), "POST", path, query);
    EXPECT_EQ(HttpStatusOf(response), 200) << response;
    std::string body(HttpBodyOf(response));
    return body.substr(0, body.find(", \"stats\": "));
  }

  std::unique_ptr<QueryServer> server_;
};

TEST_F(QueryServerGoldenTest, Figure3) {
  EXPECT_EQ(ColumnsAndRows(
                "START m=node:node_auto_index('short_name: wakeup.elf') "
                "MATCH m -[:compiled_from|linked_from*]-> f WITH distinct f "
                "MATCH f -[:file_contains]-> (n:field{short_name: 'id'}) "
                "RETURN n"),
            R"json({"columns": ["n"], "rows": [
  ["(#6:field id)"]
])json");
}

TEST_F(QueryServerGoldenTest, Figure4) {
  EXPECT_EQ(ColumnsAndRows(
                "START n=node:node_auto_index('short_name: id') "
                "WHERE (n) <-[{NAME_FILE_ID: 4, NAME_START_LINE: 104, "
                "NAME_START_COLUMN: 16}]- () RETURN n"),
            R"json({"columns": ["n"], "rows": [
  ["(#7:field id)"]
])json");
}

TEST_F(QueryServerGoldenTest, Figure5) {
  EXPECT_EQ(
      ColumnsAndRows(
          "START from=node:node_auto_index('short_name: sr_media_change'), "
          "to=node:node_auto_index('short_name: get_sectorsize'), "
          "b=node:node_auto_index('short_name: packet_command') "
          "MATCH writer -[write:writes_member]-> ({SHORT_NAME:'cmd'}) "
          "<-[:contains]- b "
          "WITH to, from, writer, write "
          "MATCH direct <-[s:calls]- from "
          "-[r:calls{use_start_line: 236}]-> to "
          "WHERE r.use_start_line >= s.use_start_line "
          "AND direct -[:calls*]-> writer "
          "RETURN distinct writer, write.use_start_line"),
      R"json({"columns": ["writer", "write.use_start_line"], "rows": [
  ["(#14:function sr_do_ioctl)", "150"]
])json");
}

TEST_F(QueryServerGoldenTest, Figure6FastPathAndEnumerationAgree) {
  const std::string query =
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m";
  const std::string expected = R"json({"columns": ["m"], "rows": [
  ["(#11:function get_sectorsize)"],
  ["(#12:function helper_a)"],
  ["(#13:function helper_b)"],
  ["(#14:function sr_do_ioctl)"],
  ["(#16:function odd\"na\\me\nx\u0001)"]
])json";
  EXPECT_EQ(ColumnsAndRows(query), expected);
  EXPECT_EQ(ColumnsAndRows(query, "/query?fast_path=0"), expected);
}

// `?fast_path=0` reaches the plan as well as the executor: Fig. 6's
// closure enumerates paths and Fig. 5's Filter walks the store, in EXPLAIN
// and PROFILE alike.
TEST_F(QueryServerGoldenTest, FastPathOffPlansWhatRuns) {
  const std::string fig6 =
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m";
  const std::string fig5 = query::testing::Figure5Query();
  auto plan = [&](const std::string& path, const std::string& query) {
    std::string response = HttpFetch(server_->port(), "POST", path, query);
    EXPECT_EQ(HttpStatusOf(response), 200) << response;
    return std::string(HttpBodyOf(response));
  };
  for (const std::string mode : {"EXPLAIN ", "PROFILE "}) {
    SCOPED_TRACE(mode);
    std::string closure = plan("/query?fast_path=0", mode + fig6);
    EXPECT_NE(closure.find("[path enumeration]"), std::string::npos)
        << closure;
    EXPECT_EQ(closure.find("CSR closure"), std::string::npos) << closure;
    std::string filter = plan("/query?fast_path=0", mode + fig5);
    EXPECT_NE(filter.find(". Filter "), std::string::npos) << filter;
    EXPECT_EQ(filter.find("[reachability kernel"), std::string::npos)
        << filter;
    // The default keeps both fast paths.
    EXPECT_NE(plan("/query", mode + fig6).find("[CSR closure fast path"),
              std::string::npos);
    EXPECT_NE(plan("/query", mode + fig5).find("[reachability kernel"),
              std::string::npos);
  }
}

TEST_F(QueryServerGoldenTest, Table6) {
  const std::string expected = R"json({"columns": ["n"], "rows": [
  ["(#8:struct packet_command)"]
])json";
  EXPECT_EQ(ColumnsAndRows("MATCH (n:container:symbol "
                           "{short_name: 'packet_command'}) RETURN n"),
            expected);
  EXPECT_EQ(ColumnsAndRows("START n=node:node_auto_index('(type: struct OR "
                           "type: union OR type: enum_def) AND short_name: "
                           "packet_command') RETURN n"),
            expected);
}

TEST_F(QueryServerGoldenTest, EdgeEdgeListScalarAndNullCells) {
  EXPECT_EQ(ColumnsAndRows("START n=node:node_auto_index('short_name: cmd') "
                           "MATCH n <-[r:writes_member]- writer "
                           "RETURN writer, r"),
            R"json({"columns": ["writer", "r"], "rows": [
  ["(#14:function sr_do_ioctl)", "[#20:writes_member 14->9]"],
  ["(#15:function stale_writer)", "[#21:writes_member 15->9]"]
])json");
  EXPECT_EQ(
      ColumnsAndRows(
          "START n=node:node_auto_index('short_name: sr_media_change') "
          "MATCH n -[r:calls*2..2]-> m RETURN m, r"),
      R"json({"columns": ["m", "r"], "rows": [
  ["(#14:function sr_do_ioctl)", "[2 rels]"],
  ["(#14:function sr_do_ioctl)", "[2 rels]"]
])json");
  EXPECT_EQ(ColumnsAndRows("START n=node(16) RETURN n.short_name AS name, "
                           "n.long_name, id(n) AS id, has(n.long_name) AS has"),
            R"json({"columns": ["name", "n.long_name", "id", "has"], "rows": [
  ["'odd\"na\\me\nx\u0001'", "null", "16", "false"]
])json");
  EXPECT_EQ(ColumnsAndRows("MATCH (n:container:symbol "
                           "{short_name: 'helper_a'}) RETURN n"),
            R"json({"columns": ["n"], "rows": [])json");
}

TEST(QueryServerShedTest, OverBudgetSheds429WithRetryAfter) {
  obs::Readiness::Global().ResetForTesting();
  QueryServer::Options options;
  options.admission.max_inflight_bytes = 1;  // every request over budget
  auto server = QueryServer::Start(options, &Epochs());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::string response = HttpFetch((*server)->port(), "POST", "/query",
                                   "MATCH (f:function) RETURN f");
  EXPECT_EQ(HttpStatusOf(response), 429) << response;
  EXPECT_NE(response.find("Retry-After: "), std::string::npos) << response;
  WriteCapture("server_overload.http", response);

  // Shedding flips readiness to overloaded (503 on /readyz) until a
  // request gets through again.
  std::string ready = HttpFetch((*server)->port(), "GET", "/readyz");
  EXPECT_EQ(HttpStatusOf(ready), 503) << ready;
  EXPECT_NE(HttpBodyOf(ready).find("\"state\": \"overloaded\""),
            std::string::npos)
      << ready;
  WriteCapture("server_readyz_overloaded.json", HttpBodyOf(ready));

  (*server)->Stop();
  obs::Readiness::Global().ResetForTesting();
}

// Polls `done` until it holds or `timeout` passes; returns whether it held.
template <typename Predicate>
bool PollUntil(Predicate done, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(QueryServerShedTest, FullQueueSheds429) {
  obs::Readiness::Global().ResetForTesting();
  QueryServer::Options options;
  options.workers = 1;
  options.admission.queue_capacity = 1;
  auto server = QueryServer::Start(options, &Epochs());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = (*server)->port();
  uint64_t shed_before = obs::Registry::Global()
                             .GetCounter("server.shed_queue_full")
                             .Value();
  const obs::Counter& admitted =
      obs::Registry::Global().GetCounter("server.admitted");
  const obs::Gauge& queue_depth =
      obs::Registry::Global().GetGauge("server.queue_depth");
  const uint64_t admitted_before = admitted.Value();

  // Occupy the single worker with a slow query (bounded by its deadline),
  // then fill the one queue slot with a second; the third must shed. Each
  // step waits for the server's own counters rather than for a fixed time:
  // the hog is running once it was admitted and the queue is empty again,
  // the filler is queued once it was admitted and the queue holds one.
  std::string slow = SlowClosureQuery();
  std::thread worker_hog([&] {
    HttpFetch(port, "POST", "/query?deadline_ms=3000&fast_path=0", slow,
              15000);
  });
  bool hog_running = PollUntil(
      [&] {
        return admitted.Value() >= admitted_before + 1 &&
               queue_depth.Value() == 0;
      },
      std::chrono::milliseconds(2000));
  std::thread queue_filler;
  if (hog_running) {
    queue_filler = std::thread([&] {
      HttpFetch(port, "POST", "/query?deadline_ms=3000&fast_path=0", slow,
                15000);
    });
  }
  bool filler_queued =
      hog_running && PollUntil(
                         [&] {
                           return admitted.Value() >= admitted_before + 2 &&
                                  queue_depth.Value() == 1;
                         },
                         std::chrono::milliseconds(2000));
  EXPECT_TRUE(hog_running)
      << "the slow query was not admitted and started within 2 s";
  EXPECT_TRUE(filler_queued)
      << "the second slow query was not queued within 2 s";

  std::string response = HttpFetch(port, "POST", "/query",
                                   "MATCH (f:function) RETURN count(*)");
  EXPECT_EQ(HttpStatusOf(response), 429) << response;
  EXPECT_GT(obs::Registry::Global()
                .GetCounter("server.shed_queue_full")
                .Value(),
            shed_before);

  worker_hog.join();
  if (queue_filler.joinable()) queue_filler.join();
  (*server)->Stop();
  obs::Readiness::Global().ResetForTesting();
}

// POSTs `query` under a client trace id and returns the fingerprint of the
// trace the server retained for it ("" when none was retained).
std::string RetainedFingerprint(uint16_t port, const std::string& query,
                                const std::string& trace_hex,
                                int expected_status) {
  std::string response =
      HttpFetch(port, "POST", "/query", query, 15000,
                "traceparent: 00-" + trace_hex + "-b7ad6b7169203331-01\r\n");
  EXPECT_EQ(HttpStatusOf(response), expected_status) << response;
  uint64_t hi = 0, lo = 0;
  EXPECT_TRUE(obs::ParseTraceIdHex(trace_hex, &hi, &lo));
  obs::StoredTrace stored;
  if (!obs::TraceStore::Global().Lookup(hi, lo, &stored)) return "";
  return stored.fingerprint;
}

// The `fp` of the /stats row whose query shape contains `marker`.
std::string StatsRowFingerprint(std::string_view marker) {
  auto stats = obs::StatsServer::Start();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return "";
  std::string body(HttpBodyOf(HttpFetch((*stats)->port(), "GET", "/stats")));
  (*stats)->Stop();
  size_t at = body.find(marker);
  size_t fp = body.rfind("\"fp\": \"", at);
  if (at == std::string::npos || fp == std::string::npos) return "";
  return body.substr(fp + 7, 16);
}

// The server fingerprints retained and shed traces itself, from the
// request body; the session fingerprints the /stats row. Both must name
// the same shape, for accepted and lexer-rejected queries alike.
TEST(QueryServerFingerprintTest, TracesCarryTheStatsRowFingerprint) {
  obs::Readiness::Global().ResetForTesting();
  obs::TraceStore::Global().Clear();
  const std::string ok_query =
      "MATCH (fp_probe_ok:function) WHERE fp_probe_ok.short_name = "
      "'vfs_read' RETURN fp_probe_ok LIMIT 3";
  const std::string rejected_query =
      "MATCH (fp_probe_bad:function) WHERE fp_probe_bad.short_name = "
      "'vfs_read'; RETURN fp_probe_bad";

  auto server = QueryServer::Start({}, &Epochs());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::string requested =
      RetainedFingerprint((*server)->port(), ok_query,
                          "1af7651916cd43dd8448eb211c80319c", 200);
  std::string error =
      RetainedFingerprint((*server)->port(), rejected_query,
                          "2af7651916cd43dd8448eb211c80319c", 400);
  (*server)->Stop();

  QueryServer::Options shedding;
  shedding.admission.max_inflight_bytes = 1;  // every request over budget
  auto shed_server = QueryServer::Start(shedding, &Epochs());
  ASSERT_TRUE(shed_server.ok()) << shed_server.status().ToString();
  std::string shed =
      RetainedFingerprint((*shed_server)->port(), ok_query,
                          "3af7651916cd43dd8448eb211c80319c", 429);
  (*shed_server)->Stop();
  obs::Readiness::Global().ResetForTesting();

  const std::string ok_row = StatsRowFingerprint("fp_probe_ok");
  const std::string rejected_row = StatsRowFingerprint("fp_probe_bad");
  ASSERT_EQ(ok_row.size(), 16u);
  ASSERT_EQ(rejected_row.size(), 16u);
  EXPECT_NE(ok_row, rejected_row);
  EXPECT_EQ(requested, ok_row);
  EXPECT_EQ(shed, ok_row);
  EXPECT_EQ(error, rejected_row);
}

// The `slow_queries` array of the current /stats document.
std::string SlowRows() {
  auto stats = obs::StatsServer::Start();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return "";
  std::string body(HttpBodyOf(HttpFetch((*stats)->port(), "GET", "/stats")));
  (*stats)->Stop();
  size_t at = body.find("\"slow_queries\": [");
  size_t end = body.find("\"query_log\":", at);
  if (at == std::string::npos || end == std::string::npos) return "";
  return body.substr(at, end - at);
}

size_t CountOf(std::string_view haystack, std::string_view needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string_view::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

// The 32-hex trace id a /query response body carries.
std::string ResponseTraceId(const std::string& response) {
  std::string_view body = HttpBodyOf(response);
  size_t at = body.find("\"trace_id\": \"");
  if (at == std::string_view::npos) return "";
  return std::string(body.substr(at + 13, 32));
}

// Collects the `slowlog` entries written between construction and
// destruction.
class SlowLogCapture {
 public:
  SlowLogCapture() {
    obs::Log::SetSinkForTesting([this](const obs::LogEntry& entry) {
      if (entry.component == "slowlog") messages_.push_back(entry.message);
    });
  }
  ~SlowLogCapture() { obs::Log::SetSinkForTesting(nullptr); }
  // Stops capturing and returns what was captured.
  std::vector<std::string> Take() {
    obs::Log::SetSinkForTesting(nullptr);
    return std::move(messages_);
  }

 private:
  std::vector<std::string> messages_;
};

// FRAPPE_SLOW_QUERY_MS=0 makes every query slow. The session judges a
// served query once: one slowlog entry, one count, and one retained
// record, the server's whole tree, which /stats lists and /debug/tracez
// serves.
TEST_F(QueryServerTest, ServedSlowQueryKeepsOneRecord) {
  obs::TraceStore::Global().Clear();
  obs::RuntimeConfig config;
  config.slow_query_ms = 0;
  obs::SetConfigForTesting(config);
  const obs::Counter& slow_count =
      obs::Registry::Global().GetCounter("session.slow_queries");
  const uint64_t slow_before = slow_count.Value();
  SlowLogCapture capture;
  std::string response = HttpFetch(
      port_, "POST", "/query",
      "MATCH (slow_probe:function) WHERE slow_probe.short_name = "
      "'vfs_read' RETURN slow_probe");
  std::vector<std::string> logged = capture.Take();
  obs::SetConfigForTesting(obs::RuntimeConfig());
  ASSERT_EQ(HttpStatusOf(response), 200) << response;
  const std::string trace_id = ResponseTraceId(response);
  ASSERT_EQ(trace_id.size(), 32u) << response;

  ASSERT_EQ(logged.size(), 1u);
  EXPECT_NE(logged[0].find("trace=" + trace_id), std::string::npos)
      << logged[0];
  EXPECT_EQ(slow_count.Value(), slow_before + 1);
  const std::string rows = SlowRows();
  EXPECT_EQ(CountOf(rows, "\"trace_id\": "), 1u) << rows;
  EXPECT_NE(rows.find("\"trace_id\": \"" + trace_id + "\""),
            std::string::npos)
      << rows;
  const std::string fp = StatsRowFingerprint("slow_probe");
  ASSERT_EQ(fp.size(), 16u);
  EXPECT_NE(rows.find("\"fp\": \"" + fp + "\""), std::string::npos) << rows;
  EXPECT_NE(rows.find("\"status\": \"ok\""), std::string::npos) << rows;

  auto stats = obs::StatsServer::Start();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::string tree = HttpFetch((*stats)->port(), "GET",
                               "/debug/tracez?trace_id=" + trace_id);
  (*stats)->Stop();
  EXPECT_EQ(HttpStatusOf(tree), 200) << tree;
  EXPECT_NE(tree.find("\"name\": \"server.request\""), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("\"name\": \"session.execute\""), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("\"reason\": \"slow\""), std::string::npos) << tree;
}

// A slow query that fails is still slow: its one row names the failure.
TEST_F(QueryServerTest, FailedSlowQueryKeepsOneRowWithItsStatus) {
  obs::TraceStore::Global().Clear();
  obs::RuntimeConfig config;
  config.slow_query_ms = 0;
  obs::SetConfigForTesting(config);
  std::string response =
      HttpFetch(port_, "POST", "/query?deadline_ms=30&fast_path=0",
                SlowClosureQuery(), /*timeout_ms=*/15000);
  obs::SetConfigForTesting(obs::RuntimeConfig());
  ASSERT_EQ(HttpStatusOf(response), 408) << response;
  const std::string rows = SlowRows();
  EXPECT_EQ(CountOf(rows, "\"trace_id\": "), 1u) << rows;
  EXPECT_NE(rows.find("\"status\": \"DeadlineExceeded\""), std::string::npos)
      << rows;
}

// The verdict is the session's: a query that executes well under the
// threshold is not slow, even when it waited in the queue for longer than
// the threshold. It gets no log entry, no row and no retained trace, unless
// the client asked for its trace.
TEST(QueryServerSlowTest, QueueWaitAloneIsNotSlow) {
  obs::Readiness::Global().ResetForTesting();
  obs::TraceStore::Global().Clear();
  QueryServer::Options options;
  options.workers = 1;
  auto server = QueryServer::Start(options, &Epochs());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();
  const obs::Counter& admitted =
      obs::Registry::Global().GetCounter("server.admitted");
  const obs::Gauge& queue_depth =
      obs::Registry::Global().GetGauge("server.queue_depth");
  const uint64_t admitted_before = admitted.Value();

  constexpr int64_t kThresholdMs = 200;
  obs::RuntimeConfig config;
  config.slow_query_ms = kThresholdMs;
  obs::SetConfigForTesting(config);
  SlowLogCapture capture;
  // The hog holds the one worker until its deadline, so the probe queues
  // behind it for longer than the threshold (and less than the 2 s queue
  // deadline).
  std::thread hog([&] {
    HttpFetch(port, "POST", "/query?deadline_ms=1000&fast_path=0",
              SlowClosureQuery(), 15000);
  });
  EXPECT_TRUE(PollUntil(
      [&] {
        return admitted.Value() >= admitted_before + 1 &&
               queue_depth.Value() == 0;
      },
      std::chrono::milliseconds(2000)));
  const std::string probe =
      "MATCH (queued_probe:function) WHERE queued_probe.short_name = "
      "'vfs_read' RETURN queued_probe";
  std::string queued = HttpFetch(port, "POST", "/query", probe, 15000);
  hog.join();
  std::string requested =
      HttpFetch(port, "POST", "/query", probe, 15000,
                "traceparent: 00-5af7651916cd43dd8448eb211c80319c-"
                "b7ad6b7169203331-01\r\n");
  std::vector<std::string> logged = capture.Take();
  obs::SetConfigForTesting(obs::RuntimeConfig());
  (*server)->Stop();
  obs::Readiness::Global().ResetForTesting();

  ASSERT_EQ(HttpStatusOf(queued), 200) << queued;
  ASSERT_EQ(HttpStatusOf(requested), 200) << requested;
  EXPECT_GE(JsonInt(HttpBodyOf(queued), "queue_us"), kThresholdMs * 1000)
      << "the probe did not wait behind the hog: " << queued;
  for (const std::string& message : logged) {
    EXPECT_EQ(message.find("queued_probe"), std::string::npos) << message;
  }
  const std::string rows = SlowRows();
  EXPECT_EQ(rows.find("queued_probe"), std::string::npos) << rows;
  uint64_t hi = 0, lo = 0;
  ASSERT_TRUE(obs::ParseTraceIdHex(ResponseTraceId(queued), &hi, &lo));
  obs::StoredTrace stored;
  EXPECT_FALSE(obs::TraceStore::Global().Lookup(hi, lo, &stored))
      << "retained as " << stored.reason;
  ASSERT_TRUE(obs::ParseTraceIdHex("5af7651916cd43dd8448eb211c80319c", &hi,
                                   &lo));
  ASSERT_TRUE(obs::TraceStore::Global().Lookup(hi, lo, &stored));
  EXPECT_EQ(stored.reason, "requested");
  EXPECT_FALSE(stored.slow);
}

TEST(QueryServerLifecycleTest, StoppedServerRefusesConnections) {
  obs::Readiness::Global().ResetForTesting();
  auto server = QueryServer::Start({}, &Epochs());
  ASSERT_TRUE(server.ok());
  uint16_t port = (*server)->port();
  EXPECT_FALSE((*server)->draining());
  (*server)->Stop();
  EXPECT_TRUE((*server)->draining());
  (*server)->Stop();  // idempotent
  // The listen socket is closed: connects fail, HttpFetch returns empty.
  EXPECT_EQ(HttpFetch(port, "GET", "/healthz"), "");
  obs::Readiness::Global().ResetForTesting();
}

}  // namespace
}  // namespace frappe::server
