// /debug/statz end to end: a session runs ANALYZE and a query, the
// shell-style catalog provider is registered, and the endpoint serves the
// catalog JSON over real HTTP. Exports statz_export.json,
// statz_metrics.txt and stats_export.json (the /stats body), the fixtures
// tools/statz_check.py validates from ctest.

#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "gtest/gtest.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::obs {
namespace {

std::string HttpGet(uint16_t port, const std::string& path) {
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
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
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

class StatzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = StatsServer::Start();
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override {
    server_.reset();
    StatsServer::SetCatalogStatsProvider(nullptr);
  }

  uint16_t port() const { return server_->port(); }

  std::unique_ptr<StatsServer> server_;
};

TEST_F(StatzTest, ServesWithoutAProvider) {
  StatsServer::SetCatalogStatsProvider(nullptr);
  std::string response = HttpGet(port(), "/debug/statz");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  std::string body = Body(response);
  EXPECT_EQ(body, "{\n  \"catalog\": null\n}\n") << body;
}

TEST_F(StatzTest, ServesCatalogEndToEnd) {
  query::testing::PaperFixture fixture;
  query::Session session(fixture.graph);

  // The shell's wiring: /debug/statz reads whatever catalog the shared
  // cache holds.
  std::shared_ptr<graph::StatsCatalogCache> stats =
      session.database().stats;
  ASSERT_NE(stats, nullptr);
  StatsServer::SetCatalogStatsProvider([stats]() -> std::string {
    auto catalog = stats->Get();
    return catalog != nullptr ? catalog->ToJson() : std::string();
  });

  ASSERT_TRUE(session.Run("ANALYZE").ok());
  // One query gives /stats a fingerprint row to export.
  ASSERT_TRUE(session.Run("MATCH (n:function) RETURN n").ok());

  std::string response = HttpGet(port(), "/debug/statz");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  std::string body = Body(response);
  EXPECT_NE(body.find("\"catalog\": {"), std::string::npos) << body;
  EXPECT_NE(body.find("\"node_count\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"edge_types\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"hubs\""), std::string::npos) << body;
  ExportFixtureFile("statz_export.json", body);

  // The catalog gauges surface on /metrics.
  std::string metrics = Body(HttpGet(port(), "/metrics"));
  EXPECT_NE(metrics.find("# TYPE frappe_catalog_nodes gauge"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE frappe_catalog_edges gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE frappe_catalog_bytes gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE frappe_catalog_builds_total counter"),
            std::string::npos);
  ExportFixtureFile("statz_metrics.txt", metrics);

  // /stats lists the query's fingerprint row; statz_check.py pins the
  // row schema.
  std::string stats_body = Body(HttpGet(port(), "/stats"));
  EXPECT_NE(stats_body.find("\"fingerprints\": ["), std::string::npos)
      << stats_body;
  ExportFixtureFile("stats_export.json", stats_body);

  // The catalog bytes also appear in the storage view when the embedder
  // registers them (shell behaviour) — covered by the shell itself; here
  // we only pin the statz schema.
}

}  // namespace
}  // namespace frappe::obs
