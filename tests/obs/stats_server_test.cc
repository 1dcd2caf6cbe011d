#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "obs/config.h"
#include "obs/fingerprint.h"
#include "obs/readiness.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::obs {
namespace {

// Minimal HTTP/1.0 client: one request, read to EOF (the server closes).
// The method is caller-supplied so tests can exercise the server's
// method-not-allowed path with raw requests.
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

class StatsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QueryStats::Global().ResetForTesting();
    SlowQueryRing::Global().ResetForTesting();
    // Port 0: the kernel picks a free ephemeral port — no collisions
    // across parallel ctest jobs.
    auto server = StatsServer::Start();
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<StatsServer> server_;
};

TEST_F(StatsServerTest, HealthzAnswersOk) {
  std::string response = HttpGet(server_->port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_EQ(Body(response), "ok\n");
}

TEST_F(StatsServerTest, UnknownPathIs404WithJsonBody) {
  std::string response = HttpGet(server_->port(), "/nope");
  EXPECT_NE(response.find("404 Not Found"), std::string::npos) << response;
  // Regression: 404s used to go out without a Content-Type at all.
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos)
      << response;
  std::string body = Body(response);
  EXPECT_NE(body.find("\"error\": "), std::string::npos) << body;
  EXPECT_NE(body.find("\"status\": 404"), std::string::npos) << body;
}

TEST_F(StatsServerTest, NonGetOrPostMethodsAreRejectedCleanly) {
  for (const char* method : {"DELETE", "PUT", "HEAD"}) {
    std::string response = HttpRequest(server_->port(), method, "/metrics");
    EXPECT_NE(response.find("405 Method Not Allowed"), std::string::npos)
        << method << ": " << response;
    EXPECT_NE(response.find("Content-Type: application/json"),
              std::string::npos)
        << method << ": " << response;
    EXPECT_NE(Body(response).find("\"status\": 405"), std::string::npos)
        << method;
  }
}

TEST_F(StatsServerTest, GarbageRequestLineIs400) {
  // No space in the request line at all: the parser can't split off a
  // method, and must still answer with a well-formed JSON error.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char raw[] = "GARBAGE\r\n\r\n";
  ::send(fd, raw, sizeof(raw) - 1, 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos)
      << response;
}

TEST_F(StatsServerTest, MetricsServesPrometheusExposition) {
  // Run real queries so the session counters and latency histogram carry
  // data, not just declarations.
  query::testing::PaperFixture fixture;
  query::Session session(fixture.graph);
  ASSERT_TRUE(session.Run("MATCH (f:function) RETURN f").ok());
  ASSERT_TRUE(
      session.Run("START n=node:node_auto_index('short_name: cmd')"
                  " MATCH s -[:contains]-> n RETURN s")
          .ok());

  std::string body = Body(HttpGet(server_->port(), "/metrics"));
  EXPECT_NE(body.find("# TYPE frappe_session_queries_total counter"),
            std::string::npos)
      << body;
  // Any positive value: the Registry is process-lifetime (resetting it
  // would orphan the static counter references in RunQuery), so the exact
  // count depends on what ran before this test.
  EXPECT_NE(body.find("frappe_session_queries_total "), std::string::npos)
      << body;
  // The latency histogram carries exemplars (every query records one with
  // its trace id), so it exports as a bucketed OpenMetrics-style histogram
  // rather than a quantile summary.
  EXPECT_NE(body.find("# TYPE frappe_query_latency_us histogram"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("frappe_query_latency_us_bucket{le=\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("frappe_query_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find(" # {trace_id=\""), std::string::npos) << body;
  EXPECT_NE(body.find("frappe_query_latency_us_count "), std::string::npos)
      << body;
  EXPECT_NE(body.find("frappe_query_latency_us_sum "), std::string::npos)
      << body;
  EXPECT_NE(body.find("frappe_build_info{sha=\""), std::string::npos) << body;
  EXPECT_NE(body.find("frappe_query_fingerprints 2"), std::string::npos)
      << body;

  // Content type is the Prometheus text exposition version.
  std::string response = HttpGet(server_->port(), "/metrics");
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);

  // Export the fixture tools/qlog_check.py --metrics validates from ctest.
  std::FILE* f = std::fopen("metrics_export.txt", "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

TEST_F(StatsServerTest, StatsServesFingerprintTableJson) {
  query::testing::PaperFixture fixture;
  query::Session session(fixture.graph);
  ASSERT_TRUE(session.Run("MATCH (f:function) RETURN f").ok());
  ASSERT_TRUE(session.Run("MATCH (s:struct) RETURN s").ok());

  std::string response = HttpGet(server_->port(), "/stats");
  EXPECT_NE(response.find("application/json"), std::string::npos);
  std::string body = Body(response);
  EXPECT_NE(body.find("\"fingerprints\": ["), std::string::npos) << body;
  EXPECT_NE(body.find("\"build_sha\": \""), std::string::npos) << body;
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos) << body;
  EXPECT_NE(body.find("match(f:function)return f"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"slow_queries\": ["), std::string::npos) << body;
  EXPECT_NE(body.find("\"query_log\":"), std::string::npos) << body;
  // The parsed runtime config, one key per knob.
  EXPECT_NE(body.find("\"config\": {\"log_level\": "), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"stuck_query_action\": \"warn\"}"),
            std::string::npos)
      << body;

  // Export the fixture tools/qlog_check.py --stats validates from ctest:
  // it pins the fingerprint-row schema and its ordering.
  std::FILE* f = std::fopen("stats_export.json", "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

TEST_F(StatsServerTest, ServesSequentialRequests) {
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Body(HttpGet(server_->port(), "/healthz")), "ok\n");
  }
}

TEST_F(StatsServerTest, StopIsIdempotentAndPromptlyFreesThePort) {
  uint16_t port = server_->port();
  server_->Stop();
  server_->Stop();
  // The listener is closed: a fresh server can bind the same port.
  StatsServer::Options options;
  options.port = port;
  auto again = StatsServer::Start(options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->port(), port);
}

TEST_F(StatsServerTest, ReadyzReflectsReadinessState) {
  Readiness::Global().ResetForTesting();
  std::string response = HttpGet(server_->port(), "/readyz");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(Body(response).find("\"state\": \"ready\""), std::string::npos)
      << response;

  // Degraded still serves (200) but carries the reason for operators.
  Readiness::Global().SetDegraded("snapshot loaded from fallback");
  response = HttpGet(server_->port(), "/readyz");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(Body(response).find("\"state\": \"degraded\""), std::string::npos)
      << response;
  EXPECT_NE(Body(response).find("snapshot loaded from fallback"),
            std::string::npos)
      << response;

  // Overloaded and draining flip readiness to 503; draining wins when both
  // are set (a draining process must leave the load balancer even if the
  // overload clears).
  Readiness::Global().SetOverloaded(true);
  response = HttpGet(server_->port(), "/readyz");
  EXPECT_NE(response.find("503"), std::string::npos) << response;
  EXPECT_NE(Body(response).find("\"state\": \"overloaded\""),
            std::string::npos)
      << response;
  Readiness::Global().SetDraining(true);
  response = HttpGet(server_->port(), "/readyz");
  EXPECT_NE(response.find("503"), std::string::npos) << response;
  EXPECT_NE(Body(response).find("\"state\": \"draining\""), std::string::npos)
      << response;

  // /healthz stays 200 throughout: liveness is "the process can answer",
  // readiness is "send it traffic" — a draining server is alive.
  EXPECT_EQ(Body(HttpGet(server_->port(), "/healthz")), "ok\n");
  Readiness::Global().ResetForTesting();
}

TEST(StatsServerTimeoutTest, StallingClientCannotWedgeTheServer) {
  // A client that connects and then trickles (or stops sending entirely)
  // must be cut off by the read deadline, and the accept thread must keep
  // serving everyone else afterwards.
  StatsServer::Options options;
  options.socket_timeout_ms = 200;
  auto server = StatsServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = (*server)->port();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Half a request line, then silence.
  const char partial[] = "GET /metr";
  ::send(fd, partial, sizeof(partial) - 1, 0);

  auto start = std::chrono::steady_clock::now();
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  double waited_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  // The server timed the stall out (408 for the partial request) well
  // before the default 5s budget — and within a few timeout periods.
  EXPECT_NE(response.find("408"), std::string::npos) << response;
  EXPECT_LT(waited_ms, 3000.0);

  // The listener is not wedged: a normal client is served immediately.
  std::string healthz = HttpGet(port, "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos) << healthz;
}

TEST(StatsServerEnvTest, MaybeStartFromEnvIsOffByDefault) {
  SetConfigForTesting(RuntimeConfig());
  EXPECT_EQ(StatsServer::MaybeStartFromEnv(), nullptr);
}

TEST(StatsServerEnvTest, MaybeStartFromEnvHonorsPort) {
  RuntimeConfig config;
  config.stats_port = 0;
  SetConfigForTesting(config);
  auto server = StatsServer::MaybeStartFromEnv();
  ASSERT_NE(server, nullptr);
  EXPECT_GT(server->port(), 0);
  SetConfigForTesting(RuntimeConfig());
}

TEST(StatsServerEnvTest, MaybeStartFromEnvToleratesGarbage) {
  std::vector<std::string> warnings;
  SetConfigForTesting(ParseRuntimeConfig(
      [](const char* name) {
        return std::string_view(name) == "FRAPPE_STATS_PORT" ? "not-a-port"
                                                             : nullptr;
      },
      &warnings));
  EXPECT_EQ(warnings.size(), 1u);
  EXPECT_EQ(StatsServer::MaybeStartFromEnv(), nullptr);
  SetConfigForTesting(RuntimeConfig());
}

}  // namespace
}  // namespace frappe::obs
