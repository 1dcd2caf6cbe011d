#include "obs/stats_server.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/string_util.h"
#include "obs/config.h"
#include "obs/fingerprint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "obs/query_registry.h"
#include "obs/readiness.h"
#include "obs/trace_store.h"

namespace frappe::obs {

namespace {

std::mutex& StorageProviderMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::function<StatsServer::StorageSections()>& StorageProviderRef() {
  static auto* fn = new std::function<StatsServer::StorageSections()>();
  return *fn;
}

// Copies the provider under the lock, invokes it outside (the provider may
// walk a graph store; holding the registration lock that long is rude).
StatsServer::StorageSections QueryStorageSections(bool* registered) {
  std::function<StatsServer::StorageSections()> fn;
  {
    std::lock_guard<std::mutex> lock(StorageProviderMutex());
    fn = StorageProviderRef();
  }
  *registered = static_cast<bool>(fn);
  return fn ? fn() : StatsServer::StorageSections{};
}

// "query.latency_us" -> "frappe_query_latency_us" (Prometheus name rules:
// [a-zA-Z_:][a-zA-Z0-9_:]*).
std::string PromName(std::string_view name) {
  std::string out = "frappe_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string ResolveBuildSha(std::string_view from_options) {
  if (!from_options.empty()) return std::string(from_options);
  if (!Config().git_sha.empty()) return Config().git_sha;
#ifdef FRAPPE_GIT_SHA_DEFAULT
  return FRAPPE_GIT_SHA_DEFAULT;
#else
  return "unknown";
#endif
}

// The shared HTTP response helpers live in obs/http_listener.h; local
// aliases keep the endpoint code below readable.
HttpResponse Ok(std::string_view content_type, std::string body) {
  HttpResponse r;
  r.content_type = std::string(content_type);
  r.body = std::move(body);
  return r;
}

// /debug/queryz body: the active-query registry dump plus the front-door
// pressure section — queue depth and in-flight bytes (the admission
// gauges) and the queue-wait histogram, so "why is my query slow" and
// "is the server backed up" are answerable from one endpoint.
std::string QueryzJson() {
  std::string out = QueryRegistry::Global().DumpJson();
  // DumpJson ends with "}\n"; splice the server section in before the
  // closing brace.
  if (out.size() >= 2 && out[out.size() - 2] == '}') {
    out.resize(out.size() - 2);
  }
  Registry& registry = Registry::Global();
  Histogram::Snapshot wait =
      registry.GetHistogram("server.queue_wait_us").Snap();
  out += ",\n  \"server\": {\"queue_depth\": " +
         std::to_string(registry.GetGauge("server.queue_depth").Value());
  out += ", \"inflight_bytes\": " +
         std::to_string(registry.GetGauge("server.inflight_bytes").Value());
  out += ", \"inflight_bytes_hw\": " +
         std::to_string(
             registry.GetGauge("server.inflight_bytes_hw").Value());
  out += ", \"queue_wait_us\": {\"count\": " + std::to_string(wait.count);
  out += ", \"mean\": " + Num(wait.Mean());
  out += ", \"p50\": " + Num(wait.Quantile(0.5));
  out += ", \"p99\": " + Num(wait.Quantile(0.99));
  out += "}}\n}\n";
  return out;
}

// Current resident set from /proc/self/statm (field 2, pages). Linux
// only; 0 when the file is unreadable.
uint64_t CurrentRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  int fields = std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (fields != 2) return 0;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// Lifetime peak RSS (getrusage reports kilobytes on Linux).
uint64_t PeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace

std::string StatsServer::MetricsText(std::string_view build_sha,
                                     double uptime_seconds) {
  Registry& registry = Registry::Global();
  std::string out;

  out += "# TYPE frappe_build_info gauge\nfrappe_build_info{sha=\"" +
         JsonEscape(build_sha) + "\"} 1\n";
  out += "# TYPE frappe_uptime_seconds gauge\nfrappe_uptime_seconds " +
         Num(uptime_seconds) + "\n";

  for (const auto& [name, value] : registry.SnapshotCounters()) {
    std::string prom = PromName(name);
    if (!EndsWith(prom, "_total")) prom += "_total";
    out += "# TYPE " + prom + " counter\n" + prom + " " +
           std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : registry.SnapshotGauges()) {
    std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n" + prom + " " +
           std::to_string(value) + "\n";
  }
  // Histograms: plain ones export as summaries (quantiles interpolated
  // from the pow2 buckets); histograms that have pinned exemplars (the
  // per-request latency family) export in bucketed form so each bucket can
  // carry its OpenMetrics exemplar — `# {trace_id="..."} value ts` — the
  // link from a p99 spike on a dashboard to a retained trace.
  for (const auto& [name, snap] : registry.SnapshotHistograms()) {
    std::string prom = PromName(name);
    if (snap.exemplars.empty()) {
      out += "# TYPE " + prom + " summary\n";
      for (double q : {0.5, 0.9, 0.95, 0.99}) {
        out += prom + "{quantile=\"" + Num(q) + "\"} " +
               Num(snap.Quantile(q)) + "\n";
      }
      out += prom + "_sum " + std::to_string(snap.sum) + "\n";
      out += prom + "_count " + std::to_string(snap.count) + "\n";
      continue;
    }
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      cumulative += snap.buckets[b];
      out += prom + "_bucket{le=\"" +
             std::to_string(Histogram::BucketUpperBound(b)) + "\"} " +
             std::to_string(cumulative);
      const Histogram::Exemplar& ex = snap.exemplars[b];
      if (ex.ts_us != 0) {
        out += " # {trace_id=\"" + TraceIdHex(ex.trace_hi, ex.trace_lo) +
               "\"} " + std::to_string(ex.value) + " " +
               Num(static_cast<double>(ex.ts_us) / 1e6);
      }
      out += "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(snap.count) +
           "\n";
    out += prom + "_sum " + std::to_string(snap.sum) + "\n";
    out += prom + "_count " + std::to_string(snap.count) + "\n";
  }

  const QueryLog& qlog = QueryLog::Global();
  out += "# TYPE frappe_qlog_written_total counter\n"
         "frappe_qlog_written_total " + std::to_string(qlog.written()) + "\n";
  out += "# TYPE frappe_qlog_dropped_total counter\n"
         "frappe_qlog_dropped_total " + std::to_string(qlog.dropped()) + "\n";
  out += "# TYPE frappe_qlog_rotations_total counter\n"
         "frappe_qlog_rotations_total " + std::to_string(qlog.rotations()) +
         "\n";
  out += "# TYPE frappe_query_fingerprints gauge\n"
         "frappe_query_fingerprints " +
         std::to_string(QueryStats::Global().size()) + "\n";
  out += "# TYPE frappe_active_queries gauge\n"
         "frappe_active_queries " +
         std::to_string(QueryRegistry::Global().size()) + "\n";
  // Table 4 storage breakdown, re-queried per scrape so Prometheus sees
  // what /debug/storagez sees.
  bool have_storage = false;
  StatsServer::StorageSections sections = QueryStorageSections(&have_storage);
  if (have_storage) {
    out += "# TYPE frappe_storage_bytes gauge\n";
    for (const auto& [section, bytes] : sections) {
      out += "frappe_storage_bytes{section=\"" + JsonEscape(section) +
             "\"} " + std::to_string(bytes) + "\n";
    }
  }
  return out;
}

std::string StatsServer::StorageJson() {
  bool have_storage = false;
  StorageSections sections = QueryStorageSections(&have_storage);
  if (!have_storage) return "";
  uint64_t total = 0;
  std::string out = "{\n  \"sections\": {";
  bool first = true;
  for (const auto& [section, bytes] : sections) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuote(section) + ": " + std::to_string(bytes);
    total += bytes;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"total\": " + std::to_string(total) + "\n}\n";
  return out;
}

std::string StatsServer::MemzJson() {
  // Subsystem sections: the storage provider's breakdown (its own "total"
  // dropped — /debug/memz computes one sum over everything) plus the
  // obs-side rings that grow with traffic rather than with the graph.
  bool have_storage = false;
  StorageSections sections = QueryStorageSections(&have_storage);
  std::string out = "{\n  \"rss_bytes\": " + std::to_string(CurrentRssBytes());
  out += ",\n  \"peak_rss_bytes\": " + std::to_string(PeakRssBytes());
  out += ",\n  \"query_mem_budget_bytes\": " +
         std::to_string(Config().query_mem_bytes);
  out += ",\n  \"sections\": {";
  uint64_t total = 0;
  bool first = true;
  auto emit = [&](const std::string& name, uint64_t bytes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuote(name) + ": " + std::to_string(bytes);
    total += bytes;
  };
  if (have_storage) {
    for (const auto& [section, bytes] : sections) {
      if (section == "total") continue;
      emit(section, bytes);
    }
  }
  emit("trace_store", TraceStore::Global().ApproxBytes());
  emit("query_log_ring", QueryLog::Global().ApproxRingBytes());
  emit("query_stats", QueryStats::Global().ApproxBytes());
  out += first ? "},\n" : "\n  },\n";
  out += "  \"total\": " + std::to_string(total) + "\n}\n";
  return out;
}

void StatsServer::SetStorageStatsProvider(
    std::function<StorageSections()> fn) {
  std::lock_guard<std::mutex> lock(StorageProviderMutex());
  StorageProviderRef() = std::move(fn);
}

std::string StatsServer::StatsJson(std::string_view build_sha,
                                   double uptime_seconds) {
  const QueryLog& qlog = QueryLog::Global();
  std::string out = "{\n  \"build_sha\": " + JsonQuote(build_sha) +
                    ",\n  \"uptime_seconds\": " + Num(uptime_seconds) +
                    ",\n  \"fingerprints\": " +
                    QueryStats::Global().DumpJson(/*top_n=*/50) +
                    ",\n  \"slow_queries\": " +
                    SlowQueryRing::Global().DumpJson() +
                    ",\n  \"query_log\": {\"written\": " +
                    std::to_string(qlog.written()) +
                    ", \"dropped\": " + std::to_string(qlog.dropped()) +
                    ", \"rotations\": " + std::to_string(qlog.rotations()) +
                    "},\n  \"config\": " + RuntimeConfigJson(Config()) +
                    "\n}\n";
  return out;
}

Result<std::unique_ptr<StatsServer>> StatsServer::Start(Options options) {
  // `new`: the constructor is private.
  std::unique_ptr<StatsServer> server(new StatsServer());
  server->build_sha_ = ResolveBuildSha(options.build_sha);
  server->started_ = std::chrono::steady_clock::now();

  HttpListener::Options listener_options;
  listener_options.port = options.port;
  listener_options.bind_address = options.bind_address;
  listener_options.socket_timeout_ms = options.socket_timeout_ms;
  // Served sequentially on the accept thread: responses are small and the
  // consumer is a scraper, not user traffic.
  FRAPPE_ASSIGN_OR_RETURN(
      server->listener_,
      HttpListener::Start(std::move(listener_options),
                          [s = server.get()](HttpConnection conn) {
                            conn.Respond(s->BuildResponse(conn.request()));
                          }));
  return server;
}

std::unique_ptr<StatsServer> StatsServer::MaybeStartFromEnv() {
  const int port = Config().stats_port;
  if (port < 0) return nullptr;
  Options options;
  options.port = static_cast<uint16_t>(port);
  Result<std::unique_ptr<StatsServer>> server = Start(std::move(options));
  if (!server.ok()) {
    LogWarn("statsz", "stats server failed to start: " +
                          server.status().ToString());
    return nullptr;
  }
  LogInfo("statsz",
          "stats server on http://127.0.0.1:" +
              std::to_string((*server)->port()) +
              " (/metrics /stats /healthz /readyz /debug/queryz "
              "/debug/storagez /debug/logz /debug/tracez "
              "/debug/cancel /debug/memz /debug/profilez)");
  return std::move(*server);
}

StatsServer::~StatsServer() { Stop(); }

void StatsServer::Stop() {
  if (listener_) listener_->Stop();
}

double StatsServer::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_)
      .count();
}

HttpResponse StatsServer::BuildResponse(const HttpRequest& request) const {
  const std::string& method = request.method;
  const std::string& target = request.target;
  const std::string& params = request.params;
  if (method != "GET" && method != "POST") {
    return HttpError(405, "Method Not Allowed",
                     "method not allowed; use GET (POST for "
                     "/debug/cancel)");
  }
  if (target == "/healthz") {
    return Ok("text/plain", "ok\n");
  }
  if (target == "/readyz") {
    // Liveness vs readiness split: /healthz says the process is up,
    // /readyz says whether it should receive traffic (draining and
    // overloaded answer 503 so a balancer takes it out of rotation).
    const Readiness& readiness = Readiness::Global();
    int code = readiness.HttpCode();
    return JsonResponse(code, code == 200 ? "OK" : "Service Unavailable",
                        readiness.Json());
  }
  if (target == "/metrics") {
    return Ok("text/plain; version=0.0.4",
              MetricsText(build_sha_, UptimeSeconds()));
  }
  if (target == "/stats") {
    return Ok("application/json", StatsJson(build_sha_, UptimeSeconds()));
  }
  if (target == "/debug/queryz") {
    return Ok("application/json", QueryzJson());
  }
  if (target == "/debug/cancel") {
    // Cancellation mutates the query's state: POST only, so an accidental
    // crawl or browser prefetch cannot kill a query.
    if (method != "POST") {
      return HttpError(405, "Method Not Allowed", "cancel requires POST");
    }
    int64_t id = 0;
    std::string_view raw = HttpQueryParam(params, "id");
    if (raw.empty() || !ParseInt64(raw, &id) || id <= 0) {
      return HttpError(400, "Bad Request", "missing or bad id parameter");
    }
    if (!QueryRegistry::Global().Cancel(static_cast<uint64_t>(id))) {
      return HttpError(404, "Not Found",
                       "no in-flight query with id " + std::to_string(id));
    }
    return Ok("application/json",
              "{\"cancelled\": " + std::to_string(id) + "}\n");
  }
  if (target == "/debug/tracez") {
    // Every form answers immediately — this endpoint never sleeps on the
    // serving thread.
    std::string_view id_raw = HttpQueryParam(params, "trace_id");
    if (!id_raw.empty()) {
      // One retained span tree by trace id (tail-sampled: slow, errored,
      // cancelled, shed, or explicitly traced via a traceparent header).
      uint64_t hi = 0;
      uint64_t lo = 0;
      if (!ParseTraceIdHex(id_raw, &hi, &lo)) {
        return HttpError(400, "Bad Request",
                         "bad trace_id (want 32 hex chars)");
      }
      StoredTrace trace;
      if (!TraceStore::Global().Lookup(hi, lo, &trace)) {
        return HttpError(404, "Not Found",
                         "no retained trace with that id (retention "
                         "covers slow, errored, cancelled, shed and "
                         "explicitly-traced requests)");
      }
      return Ok("application/json", TraceStore::TraceJson(trace));
    }
    if (!HttpQueryParam(params, "ms").empty()) {
      return HttpError(400, "Bad Request",
                       "?ms= capture windows are gone; fetch one retained "
                       "tree with ?trace_id=<32 hex>, or the index with no "
                       "parameters");
    }
    // No parameters: the retained-trace index.
    return Ok("application/json", TraceStore::Global().IndexJson());
  }
  if (target == "/debug/storagez") {
    std::string body = StorageJson();
    if (body.empty()) {
      return HttpError(404, "Not Found",
                       "no storage stats provider registered");
    }
    return Ok("application/json", std::move(body));
  }
  if (target == "/debug/logz") {
    return Ok("application/json", Log::DumpJson());
  }
  if (target == "/debug/memz") {
    return Ok("application/json", MemzJson());
  }
  if (target == "/debug/profilez") {
    Profiler& profiler = Profiler::Global();
    std::string_view action = HttpQueryParam(params, "action");
    if (!action.empty()) {
      // Non-blocking control surface: start arms the timer and returns
      // immediately, status reports progress, stop disarms and returns
      // whatever was collected.
      if (action == "start") {
        Status started = profiler.Start();
        if (!started.ok()) {
          return HttpError(409, "Conflict", started.message());
        }
        return Ok("application/json", "{\"profiling\": true}\n");
      }
      if (action == "status") {
        return Ok("application/json",
                  std::string("{\"running\": ") +
                      (profiler.running() ? "true" : "false") +
                      ", \"samples\": " +
                      std::to_string(profiler.sample_count()) +
                      ", \"dropped\": " +
                      std::to_string(profiler.dropped()) + "}\n");
      }
      if (action == "stop") {
        if (!profiler.running()) {
          return HttpError(409, "Conflict", "no capture running");
        }
        return Ok("text/plain", profiler.Stop());
      }
      return HttpError(400, "Bad Request",
                       "bad action (want start, status or stop)");
    }
    // Blocking form: capture for ?seconds=N (default 1) and answer with
    // the folded stacks. This is the one endpoint that intentionally
    // holds the serving thread — the operator asked for a timed window.
    double seconds = 1.0;
    std::string_view raw = HttpQueryParam(params, "seconds");
    if (!raw.empty()) {
      char* end = nullptr;
      std::string owned(raw);
      seconds = std::strtod(owned.c_str(), &end);
      if (end == owned.c_str() || seconds <= 0 || seconds > 60) {
        return HttpError(400, "Bad Request",
                         "bad seconds parameter (want 0 < s <= 60)");
      }
    }
    Result<std::string> folded = Profiler::Global().CaptureFor(seconds);
    if (!folded.ok()) {
      int code =
          folded.status().code() == StatusCode::kFailedPrecondition ? 409
                                                                    : 400;
      return HttpError(code, code == 409 ? "Conflict" : "Bad Request",
                       folded.status().message());
    }
    return Ok("text/plain", std::move(*folded));
  }
  return HttpError(404, "Not Found",
                   "unknown path; try /metrics /stats /healthz /readyz "
                   "/debug/queryz /debug/storagez /debug/logz "
                   "/debug/tracez /debug/cancel /debug/memz /debug/profilez");
}

}  // namespace frappe::obs
