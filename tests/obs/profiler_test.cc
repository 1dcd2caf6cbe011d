// Sampling profiler (obs/profiler.h): SIGPROF capture of a known CPU
// burner symbolizes to its exported name in the folded output, the
// Start/Stop/CaptureFor state machine rejects misuse, and the
// /debug/profilez + /debug/memz endpoints serve valid exports over real
// HTTP under closure load.
//
// Exports the fixture files tools/profilez_check.py validates from
// ctest: profilez_export.folded, memz_export.json.
//
// Deliberately NOT in the TSan (`parallel`) lane: the SIGPROF handler
// calls backtrace(), which is not on TSan's async-signal-safe whitelist
// and would be flagged even though the handler touches only
// pre-allocated memory via atomics.

#include "obs/profiler.h"

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
#include <vector>

#include "extractor/synthetic.h"
#include "graph/graph_store.h"
#include "gtest/gtest.h"
#include "model/code_graph.h"
#include "obs/stats_server.h"
#include "query/session.h"
#include "tests/query/fixture.h"

// The sampling target: an exported (extern "C", so dladdr sees an
// unmangled global symbol even without full debug info) CPU burner that
// the optimizer can neither inline nor elide. `noipa` (gcc) forbids the
// constprop/isra clones gcc otherwise emits for the constant call site —
// clones are local symbols, invisible to dladdr, and the samples would
// fall back to hex addresses.
#if defined(__GNUC__) && !defined(__clang__)
#define FRAPPE_TEST_NOIPA __attribute__((noipa))
#else
#define FRAPPE_TEST_NOIPA __attribute__((noinline))
#endif
extern "C" FRAPPE_TEST_NOIPA uint64_t frappe_profiler_test_burn(
    uint64_t iters) {
  volatile uint64_t acc = 0;
  for (uint64_t i = 0; i < iters; ++i) acc += i * 2654435761ull;
  return acc;
}

namespace frappe::obs {
namespace {

// Burns roughly `ms` of this thread's CPU (the thread spins, so wall
// time tracks CPU time) through the exported burner.
void BurnCpuMs(int ms) {
  auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    frappe_profiler_test_burn(1u << 16);
  }
}

TEST(ProfilerTest, SamplesAndSymbolizesABusyLoop) {
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start().ok());
  BurnCpuMs(400);
  // The ring is freed at Stop(), so live counters must be read while the
  // capture is still running.
  uint64_t samples = profiler.sample_count();
  uint64_t dropped = profiler.dropped();
  std::string folded = profiler.Stop();
  EXPECT_FALSE(profiler.running());

  // 400 ms at 250 Hz of CPU time is ~100 samples; demand a tenth of
  // that so loaded CI hosts do not flake.
  EXPECT_GE(samples, 10u) << folded;
  EXPECT_EQ(dropped, 0u);
  ASSERT_FALSE(folded.empty());
  EXPECT_NE(folded.find("frappe_profiler_test_burn"), std::string::npos)
      << folded;

  // Every line is "stack count" with a positive integer count and no
  // whitespace inside the stack (the symbolizer sanitizes frames).
  size_t start = 0;
  while (start < folded.size()) {
    size_t end = folded.find('\n', start);
    if (end == std::string::npos) end = folded.size();
    std::string line = folded.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' '), space) << "stack contains whitespace: " << line;
    std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_GT(std::strtoull(count.c_str(), nullptr, 10), 0u) << line;
  }
}

TEST(ProfilerTest, StartWhileRunningIsFailedPrecondition) {
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());

  Status again = profiler.Start();
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition)
      << again.ToString();
  Result<std::string> capture = profiler.CaptureFor(0.01);
  ASSERT_FALSE(capture.ok());
  EXPECT_EQ(capture.status().code(), StatusCode::kFailedPrecondition);

  (void)profiler.Stop();
  EXPECT_FALSE(profiler.running());
}

TEST(ProfilerTest, StopWhenIdleReturnsEmpty) {
  Profiler& profiler = Profiler::Global();
  ASSERT_FALSE(profiler.running());
  EXPECT_EQ(profiler.Stop(), "");
}

TEST(ProfilerTest, CaptureForRejectsBadWindows) {
  Profiler& profiler = Profiler::Global();
  for (double seconds : {0.0, -1.0, 61.0}) {
    Result<std::string> capture = profiler.CaptureFor(seconds);
    ASSERT_FALSE(capture.ok()) << seconds;
    EXPECT_EQ(capture.status().code(), StatusCode::kInvalidArgument)
        << capture.status().ToString();
  }
}

TEST(ProfilerTest, BadOptionsAreRejected) {
  Profiler& profiler = Profiler::Global();
  Profiler::Options bad_hz;
  bad_hz.hz = 0;
  EXPECT_EQ(profiler.Start(bad_hz).code(), StatusCode::kInvalidArgument);
  Profiler::Options bad_ring;
  bad_ring.max_samples = 0;
  EXPECT_EQ(profiler.Start(bad_ring).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(profiler.running());
}

// ---------------------------------------------------------------------------
// HTTP end to end: /debug/profilez and /debug/memz against a port-0
// stats server with closure load running.

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

class ProfilezEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = StatsServer::Start();
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override {
    server_.reset();
    StatsServer::SetStorageStatsProvider(nullptr);
  }

  uint16_t port() const { return server_->port(); }

  std::unique_ptr<StatsServer> server_;
};

// The acceptance test: under closure load the blocking capture returns
// >= 100 folded samples dominated by traversal frames (validated in
// depth by tools/profilez_check.py against the exported file), and
// /debug/memz attributes per-subsystem bytes.
TEST_F(ProfilezEndpointTest, ProfilezAndMemzUnderClosureLoad) {
  model::CodeGraph graph;
  extractor::GraphScale scale;
  scale.factor = 0.05;
  extractor::GenerateKernelGraph(scale, &graph);

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

  const graph::GraphStore& store = graph.store();
  StatsServer::SetStorageStatsProvider(
      [&store]() -> StatsServer::StorageSections {
        graph::GraphStore::MemoryBreakdown m = store.EstimateMemory();
        return {{"nodes", m.nodes},
                {"relationships", m.relationships},
                {"properties", m.properties}};
      });

  // Two load threads running closures: the fast path keeps
  // FrontierEngine/CSR frames on the query threads, which are the only CPU
  // consumers SIGPROF can land on.
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int t = 0; t < 2; ++t) {
    load.emplace_back([&graph, &query, &stop] {
      query::Session session(graph);
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = session.Run(query);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }

  std::string response = HttpGet(port(), "/debug/profilez?seconds=1");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain"), std::string::npos) << response;
  std::string folded = Body(response);
  EXPECT_FALSE(folded.empty());
  // Depth validation (format, >= 100 samples, traversal dominance) is
  // tools/profilez_check.py's job via this fixture file.
  ExportFixtureFile("profilez_export.folded", folded);

  std::string memz = HttpGet(port(), "/debug/memz");
  EXPECT_NE(memz.find("200 OK"), std::string::npos) << memz;
  EXPECT_NE(memz.find("application/json"), std::string::npos) << memz;
  std::string memz_body = Body(memz);
  EXPECT_NE(memz_body.find("\"rss_bytes\": "), std::string::npos)
      << memz_body;
  EXPECT_NE(memz_body.find("\"sections\": {"), std::string::npos)
      << memz_body;
  EXPECT_NE(memz_body.find("\"trace_store\": "), std::string::npos)
      << memz_body;
  EXPECT_NE(memz_body.find("\"nodes\": "), std::string::npos) << memz_body;
  EXPECT_NE(memz_body.find("\"total\": "), std::string::npos) << memz_body;
  ExportFixtureFile("memz_export.json", memz_body);

  stop.store(true);
  for (std::thread& t : load) t.join();
}

TEST_F(ProfilezEndpointTest, ActionStateMachineOverHttp) {
  std::string started = HttpGet(port(), "/debug/profilez?action=start");
  EXPECT_NE(started.find("200 OK"), std::string::npos) << started;
  EXPECT_NE(Body(started).find("\"profiling\": true"), std::string::npos)
      << started;

  // A second start collides with the running capture: 409, not a silent
  // restart that would drop the ring.
  std::string again = HttpGet(port(), "/debug/profilez?action=start");
  EXPECT_NE(again.find("409"), std::string::npos) << again;

  std::string status = HttpGet(port(), "/debug/profilez?action=status");
  EXPECT_NE(status.find("200 OK"), std::string::npos) << status;
  EXPECT_NE(Body(status).find("\"running\": true"), std::string::npos)
      << status;

  std::string stopped = HttpGet(port(), "/debug/profilez?action=stop");
  EXPECT_NE(stopped.find("200 OK"), std::string::npos) << stopped;
  EXPECT_NE(stopped.find("text/plain"), std::string::npos) << stopped;

  std::string idle_stop = HttpGet(port(), "/debug/profilez?action=stop");
  EXPECT_NE(idle_stop.find("409"), std::string::npos) << idle_stop;

  std::string idle_status = HttpGet(port(), "/debug/profilez?action=status");
  EXPECT_NE(Body(idle_status).find("\"running\": false"), std::string::npos)
      << idle_status;
}

TEST_F(ProfilezEndpointTest, BadRequestsAreRejected) {
  for (const char* path :
       {"/debug/profilez?seconds=0", "/debug/profilez?seconds=banana",
        "/debug/profilez?seconds=-2", "/debug/profilez?seconds=3600",
        "/debug/profilez?action=bogus"}) {
    std::string response = HttpGet(port(), path);
    EXPECT_NE(response.find("400"), std::string::npos) << path << "\n"
                                                       << response;
  }
  EXPECT_FALSE(Profiler::Global().running());
}

}  // namespace
}  // namespace frappe::obs
