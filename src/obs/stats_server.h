#ifndef FRAPPE_OBS_STATS_SERVER_H_
#define FRAPPE_OBS_STATS_SERVER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/http_listener.h"

namespace frappe::obs {

// Embedded, dependency-free stats endpoint: a blocking-accept POSIX-socket
// HTTP/1.0 server on a background thread, serving
//
//   /metrics  Prometheus text exposition of the metrics Registry —
//             counters as *_total, gauges, histograms as summaries with
//             interpolated quantiles — plus uptime, build info, the
//             query-log drop/write counters, and (when a storage provider
//             is registered) frappe_storage_bytes{section=...} gauges
//   /stats    JSON operator view: per-fingerprint query stats (top by
//             cumulative latency), recent slow queries, build SHA, uptime,
//             and the parsed runtime config (obs/config.h)
//   /healthz  "ok" liveness probe
//   /readyz   readiness probe: 200 ready/degraded, 503 overloaded/draining,
//             JSON state + reason (obs::Readiness)
//
// plus the live-diagnostics control plane:
//
//   /debug/queryz        in-flight queries: id, fingerprint, elapsed time,
//                        live progress (steps, db-hits, rows, operator,
//                        trace id, queue wait) plus the front-door
//                        pressure section (queue depth, in-flight bytes,
//                        queue-wait histogram)
//   /debug/cancel?id=N   POST: trips query N's cancel token
//   /debug/tracez        retained-trace index (tail-sampled span trees of
//                        slow/errored/cancelled/shed/explicitly-traced
//                        requests); ?trace_id=<32 hex> serves one tree as
//                        Chrome trace-event JSON. Both forms answer
//                        immediately — no capture window ever blocks the
//                        serving thread
//   /debug/storagez      per-section storage byte breakdown (Table 4)
//   /debug/statz         cardinality stats catalog (ANALYZE output)
//   /debug/logz          recent structured-log entries (the in-memory ring)
//   /debug/memz          process memory attribution: RSS and peak RSS plus
//                        per-subsystem byte sections (the storage provider's
//                        sections, the retained-trace store, the query-log
//                        ring, the fingerprint stats table) and the
//                        per-query memory budget in force
//   /debug/profilez      on-demand CPU profile: ?seconds=N (default 1)
//                        blocks for the window and returns folded stacks
//                        ("frame;frame;... count" lines, flamegraph.pl
//                        input); ?action=start|status|stop drives a
//                        non-blocking capture. 409 while a capture is
//                        already running
//
// Opt-in: production binaries call MaybeStartFromEnv() and get a server
// only when FRAPPE_STATS_PORT is set (read through obs::Config()).
// Responses are built per request from registry snapshots; connections
// are served sequentially (the responses are small, the consumer is a
// scraper, and every endpoint — including /debug/tracez — answers without
// blocking the serving thread). The
// shared HttpListener enforces SO_RCVTIMEO/SO_SNDTIMEO plus an overall
// per-request read deadline, so a stalled client cannot wedge the
// endpoint. Errors are uniform JSON bodies {"error": ..., "status": N}
// with a Content-Type, and only GET/POST are accepted. Binds 127.0.0.1 by
// default — this is an operator port, not a public one.
class StatsServer {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = kernel-assigned (tests); port() tells which
    std::string bind_address = "127.0.0.1";
    std::string build_sha;  // empty = Config().git_sha / compiled default
    // Socket timeout (SO_RCVTIMEO/SO_SNDTIMEO + overall request-read
    // deadline) on every accepted connection.
    int socket_timeout_ms = 5000;
  };

  // Binds, listens, and starts the accept thread. Fails with Internal on
  // bind/listen errors (port taken, bad address).
  static Result<std::unique_ptr<StatsServer>> Start(Options options);
  static Result<std::unique_ptr<StatsServer>> Start() {
    return Start(Options());
  }

  // Config().stats_port unset -> nullptr (and no error); set -> started
  // server, or nullptr with a logged diagnostic when startup fails (an
  // observability port must never take the process down).
  static std::unique_ptr<StatsServer> MaybeStartFromEnv();

  ~StatsServer();
  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  // The bound port (the kernel's pick when Options::port was 0).
  uint16_t port() const { return listener_ ? listener_->port() : 0; }

  // Stops accepting and joins the thread. Idempotent.
  void Stop();

  // The response bodies, exposed so tests and tools can validate the
  // formats without a socket in the loop.
  static std::string MetricsText(std::string_view build_sha,
                                 double uptime_seconds);
  static std::string StatsJson(std::string_view build_sha,
                               double uptime_seconds);
  static std::string StorageJson();
  static std::string StatzJson();
  // /debug/memz body: {"rss_bytes", "peak_rss_bytes",
  // "query_mem_budget_bytes", "sections": {name: bytes, ...}, "total"}.
  // Sections merge the storage provider's breakdown (minus its own
  // "total") with the obs-side rings; total is the sum of the sections.
  static std::string MemzJson();

  // Storage byte breakdown served by /debug/storagez and exported as
  // frappe_storage_bytes{section=...} gauges: ordered (section, bytes)
  // pairs, re-queried on every scrape. The server cannot know about graph
  // stores (obs sits below graph), so the owning binary registers a
  // provider; nullptr unregisters. The provider must be thread-safe.
  using StorageSections = std::vector<std::pair<std::string, uint64_t>>;
  static void SetStorageStatsProvider(std::function<StorageSections()> fn);

  // Cardinality stats catalog served inside /debug/statz, as a JSON
  // object string (StatsCatalog::ToJson). Same layering rule as the
  // storage provider: the owning binary registers it, nullptr
  // unregisters, and it must be thread-safe. An empty return means "no
  // catalog yet — run ANALYZE".
  static void SetCatalogStatsProvider(std::function<std::string()> fn);

 private:
  StatsServer() = default;

  HttpResponse BuildResponse(const HttpRequest& request) const;
  double UptimeSeconds() const;

  std::unique_ptr<HttpListener> listener_;
  std::string build_sha_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_STATS_SERVER_H_
