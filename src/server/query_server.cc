#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/fault_injector.h"
#include "common/string_util.h"
#include "obs/config.h"
#include "obs/fingerprint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/readiness.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "query/executor.h"
#include "query/lexer.h"
#include "query/session.h"

namespace frappe::server {

namespace {

using obs::HttpConnection;
using obs::HttpError;
using obs::HttpQueryParam;
using obs::HttpRequest;
using obs::HttpResponse;
using obs::JsonResponse;

obs::Counter& RequestCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.requests");
  return c;
}
obs::Counter& AdmittedCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.admitted");
  return c;
}
obs::Counter& ShedQueueCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.shed_queue_full");
  return c;
}
obs::Counter& ShedBudgetCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.shed_over_budget");
  return c;
}
obs::Counter& QueueExpiredCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.queue_deadline_expired");
  return c;
}
obs::Counter& DrainedCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.drained_requests");
  return c;
}
obs::Counter& OkCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.queries_ok");
  return c;
}
obs::Counter& ErrorCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.queries_error");
  return c;
}
obs::Counter& EnqueueFaultCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("server.enqueue_faults");
  return c;
}
obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("server.queue_wait_us");
  return h;
}

// HTTP status for a failed query. 499 is the nginx convention for
// "request aborted" — the closest standard-adjacent code for cooperative
// cancellation.
std::pair<int, const char*> HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kAlreadyExists:
    case StatusCode::kUnimplemented:
      return {400, "Bad Request"};
    case StatusCode::kDeadlineExceeded:
      return {408, "Request Timeout"};
    case StatusCode::kResourceExhausted:
      // Step or memory budget exceeded: the request asked for more
      // resources than the server allows (mirrors the 413 the listener
      // returns for oversized request bodies).
      return {413, "Payload Too Large"};
    case StatusCode::kCancelled:
      return {499, "Client Closed Request"};
    default:
      return {500, "Internal Server Error"};
  }
}

HttpResponse QueryErrorResponse(const Status& status) {
  auto [code, reason] = HttpStatusFor(status.code());
  std::string body = "{\"error\": ";
  body += JsonQuote(status.message());
  body += ", \"code\": \"";
  body += StatusCodeName(status.code());
  body += "\", \"status\": " + std::to_string(code) + "}\n";
  return JsonResponse(code, reason, std::move(body));
}

HttpResponse ShedResponse(std::string_view detail, int retry_after_seconds) {
  HttpResponse response =
      HttpError(429, "Too Many Requests", detail);
  response.headers.emplace_back("Retry-After",
                                std::to_string(retry_after_seconds));
  return response;
}

// Renders everything except the closing brace: the caller measures this
// call as serialize time, then appends the trace id and the timeline (which
// must include that very measurement) before closing the object.
std::string RenderResultJsonOpen(const query::QueryResult& result,
                                 const query::Database& db, uint64_t epoch) {
  std::string out = "{\"columns\": [";
  for (size_t i = 0; i < result.columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(result.columns[i]);
  }
  out += "], \"rows\": [";
  for (size_t r = 0; r < result.rows.size(); ++r) {
    out += r > 0 ? ",\n  [" : "\n  [";
    const auto& row = result.rows[r];
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ", ";
      row[c].AppendTo(&out, db);
    }
    out += "]";
  }
  out += result.rows.empty() ? "]" : "\n]";
  if (!result.plan.empty()) {
    out += ", \"plan\": " + JsonQuote(result.plan);
  }
  char elapsed[32];
  std::snprintf(elapsed, sizeof(elapsed), "%.3f",
                result.stats.elapsed_ms);
  out += ", \"stats\": {\"elapsed_ms\": ";
  out += elapsed;
  out += ", \"rows\": " + std::to_string(result.rows.size());
  out += ", \"steps\": " + std::to_string(result.stats.steps);
  out += ", \"db_hits\": " + std::to_string(result.stats.db_hits.Total());
  out += ", \"fast_path\": ";
  out += result.stats.fast_path_taken ? "true" : "false";
  out += ", \"cpu_us\": " + std::to_string(result.stats.cpu_us);
  out += ", \"alloc_bytes\": " + std::to_string(result.stats.alloc_bytes);
  out += ", \"peak_bytes\": " + std::to_string(result.stats.peak_bytes);
  out += ", \"scanned_bytes\": " + std::to_string(result.stats.scanned_bytes);
  out += "}, \"epoch\": " + std::to_string(epoch);
  return out;
}

std::string RenderTimelineJson(const query::Timeline& t) {
  std::string out = "{\"queue_us\": " + std::to_string(t.queue_us);
  out += ", \"parse_us\": " + std::to_string(t.parse_us);
  out += ", \"plan_us\": " + std::to_string(t.plan_us);
  out += ", \"exec_us\": " + std::to_string(t.exec_us);
  out += ", \"serialize_us\": " + std::to_string(t.serialize_us);
  out += ", \"total_us\": " + std::to_string(t.total_us) + "}";
  return out;
}

// A shed request never reaches a worker, but its trace id is exactly what
// an operator chasing 429s has in hand: retain a one-span tree tagged
// "shed" so /debug/tracez?trace_id= explains the refusal.
void RetainShedTrace(const AdmissionQueue::Item& item) {
  obs::StoredTrace trace;
  trace.trace_hi = item.trace.trace_hi;
  trace.trace_lo = item.trace.trace_lo;
  trace.reason = "shed";
  trace.status = "ResourceExhausted";
  trace.fingerprint = obs::FingerprintHex(
      query::NormalizeQuery(item.conn.request().body).fingerprint);
  trace.ts_us = obs::Trace::UnixMicros();
  obs::CollectedSpan span;
  span.name = "server.shed";
  span.span_id = item.trace.span_id;
  span.parent_id = item.root_parent_id;
  span.start_us = obs::Trace::NowMicros();
  trace.spans.push_back(span);
  obs::TraceStore::Global().Retain(std::move(trace));
}

}  // namespace

QueryServer::QueryServer(Options options, EpochManager* epochs)
    : options_(std::move(options)),
      epochs_(epochs),
      queue_(options_.admission) {}

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    Options options, EpochManager* epochs) {
  if (epochs == nullptr) {
    return Status::InvalidArgument("QueryServer needs an EpochManager");
  }
  if (options.workers == 0) options.workers = 1;
  std::unique_ptr<QueryServer> server(
      new QueryServer(std::move(options), epochs));
  for (size_t i = 0; i < server->options_.workers; ++i) {
    server->worker_cancel_.push_back(
        std::make_unique<std::atomic<bool>>(false));
  }
  obs::HttpListener::Options listener_options;
  listener_options.port = server->options_.port;
  listener_options.bind_address = server->options_.bind_address;
  listener_options.socket_timeout_ms = server->options_.socket_timeout_ms;
  FRAPPE_ASSIGN_OR_RETURN(
      server->listener_,
      obs::HttpListener::Start(std::move(listener_options),
                               [s = server.get()](HttpConnection conn) {
                                 s->HandleConnection(std::move(conn));
                               }));
  for (size_t i = 0; i < server->options_.workers; ++i) {
    server->workers_.emplace_back(
        [s = server.get(), i] { s->WorkerLoop(i); });
  }
  obs::LogInfo("server",
               "query server on http://" + server->options_.bind_address +
                   ":" + std::to_string(server->port()) + " (" +
                   std::to_string(server->options_.workers) +
                   " workers, queue " +
                   std::to_string(server->options_.admission.queue_capacity) +
                   ")");
  return server;
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::HandleConnection(HttpConnection conn) {
  RequestCounter().Add();
  const HttpRequest& request = conn.request();
  if (request.target == "/healthz") {
    HttpResponse response;
    response.body = "ok\n";
    conn.Respond(response);
    return;
  }
  if (request.target == "/readyz") {
    const obs::Readiness& readiness = obs::Readiness::Global();
    int code = readiness.HttpCode();
    conn.Respond(JsonResponse(code,
                              code == 200 ? "OK" : "Service Unavailable",
                              readiness.Json()));
    return;
  }
  if (request.target != "/query") {
    conn.Respond(HttpError(404, "Not Found",
                           "unknown path; try POST /query, /healthz, "
                           "/readyz"));
    return;
  }
  if (request.method != "POST") {
    conn.Respond(HttpError(405, "Method Not Allowed",
                           "/query requires POST with the FQL text as the "
                           "request body"));
    return;
  }
  if (draining_.load(std::memory_order_relaxed)) {
    conn.Respond(HttpError(503, "Service Unavailable", "server draining"));
    return;
  }
  // Fault site: lose the request between accept and admission (the
  // connection drops without a response, like a crashed proxy hop).
  common::FaultInjector& faults = common::FaultInjector::Global();
  if (faults.AnyArmed() && faults.ShouldFail("server.enqueue")) {
    EnqueueFaultCounter().Add();
    return;
  }
  // Trace identity: adopt the client's traceparent when well-formed (its
  // span id becomes the root span's parent), mint a fresh trace otherwise —
  // a malformed header is never a 4xx. The root "server.request" span id is
  // allocated now so the queue-wait span (recorded by whichever worker pops
  // the item) parents correctly.
  AdmissionQueue::Item item;
  std::optional<obs::TraceContext> remote =
      obs::ParseTraceparent(request.traceparent);
  item.trace = remote.has_value() ? *remote : obs::GenerateTraceContext();
  item.root_parent_id = remote.has_value() ? remote->span_id : 0;
  item.trace_requested = remote.has_value();
  item.trace.span_id = obs::Trace::NextSpanId();
  item.sink = std::make_shared<obs::SpanCollector>();
  item.conn = std::move(conn);
  switch (queue_.TryPush(item)) {
    case AdmissionQueue::Outcome::kAdmitted:
      AdmittedCounter().Add();
      return;
    case AdmissionQueue::Outcome::kQueueFull:
      ShedQueueCounter().Add();
      obs::Readiness::Global().SetOverloaded(
          true, "admission queue full (" +
                    std::to_string(queue_.config().queue_capacity) + ")");
      RetainShedTrace(item);
      item.conn.Respond(ShedResponse("admission queue full",
                                     queue_.config().retry_after_seconds));
      return;
    case AdmissionQueue::Outcome::kOverBudget:
      ShedBudgetCounter().Add();
      obs::Readiness::Global().SetOverloaded(
          true, "in-flight byte budget exceeded");
      RetainShedTrace(item);
      item.conn.Respond(ShedResponse("in-flight byte budget exceeded",
                                     queue_.config().retry_after_seconds));
      return;
    case AdmissionQueue::Outcome::kShutdown:
      item.conn.Respond(
          HttpError(503, "Service Unavailable", "server draining"));
      return;
  }
}

void QueryServer::WorkerLoop(size_t worker_index) {
  std::atomic<bool>& cancel = *worker_cancel_[worker_index];
  while (true) {
    std::optional<AdmissionQueue::Item> item = queue_.Pop();
    if (!item.has_value()) break;  // shutdown, queue drained
    // Queue wait ends now, whatever happens to the request next: record
    // the histogram (with the trace id as exemplar) and append the
    // explicit queue-wait span under the pre-allocated root span.
    const uint64_t queue_wait_us =
        obs::Trace::NowMicros() - item->enqueue_trace_us;
    QueueWaitHistogram().RecordWithExemplar(
        queue_wait_us, item->trace.trace_hi, item->trace.trace_lo);
    if (item->sink != nullptr) {
      obs::CollectedSpan wait_span;
      wait_span.name = "server.queue_wait";
      wait_span.span_id = obs::Trace::NextSpanId();
      wait_span.parent_id = item->trace.span_id;
      wait_span.start_us = item->enqueue_trace_us;
      wait_span.dur_us = queue_wait_us;
      item->sink->Add(wait_span);
    }
    // Reset our cancel token BEFORE checking draining_: if Stop() trips
    // the token between the reset and the check, it also set draining_
    // first, so this request is refused below instead of running with a
    // lost cancel.
    cancel.store(false, std::memory_order_relaxed);
    if (draining_.load(std::memory_order_relaxed)) {
      DrainedCounter().Add();
      item->conn.Respond(
          HttpError(503, "Service Unavailable", "server draining"));
      queue_.Release(item->charged_bytes);
      continue;
    }
    if (queue_.Expired(*item, std::chrono::steady_clock::now())) {
      // The client has been waiting past the queue deadline — executing
      // now would spend a slot on a request nobody is waiting for.
      QueueExpiredCounter().Add();
      HttpResponse expired = HttpError(408, "Request Timeout",
                                       "queue deadline exceeded before "
                                       "execution started");
      expired.headers.emplace_back("traceparent",
                                   obs::FormatTraceparent(item->trace));
      item->conn.Respond(expired);
      queue_.Release(item->charged_bytes);
      continue;
    }
    // Queue below capacity again and the request was admittable — clear
    // the overload signal set by a previous shed.
    obs::Readiness::Global().SetOverloaded(false);
    HttpResponse response = ExecuteQuery(*item, queue_wait_us, worker_index);
    if (response.code == 200) {
      OkCounter().Add();
    } else {
      ErrorCounter().Add();
    }
    // Echo the trace identity on every /query response — the value a
    // client needs to fetch its retained tree from /debug/tracez.
    response.headers.emplace_back("traceparent",
                                  obs::FormatTraceparent(item->trace));
    // The serialized response occupies server memory until the socket
    // write completes: charge it against the same in-flight byte budget
    // the request body was admitted under, so /debug/queryz's
    // inflight_bytes (and its high-water mark) reflect both directions.
    const uint64_t response_bytes = response.body.size();
    queue_.Charge(response_bytes);
    item->conn.Respond(response);
    queue_.Release(item->charged_bytes + response_bytes);
  }
}

HttpResponse QueryServer::ExecuteQuery(const AdmissionQueue::Item& item,
                                       uint64_t queue_wait_us,
                                       size_t worker_index) {
  const HttpRequest& request = item.conn.request();
  if (request.body.empty()) {
    return HttpError(400, "Bad Request",
                     "empty body; POST the FQL query text");
  }
  // Pin the current epoch for the whole execution: the writer can publish
  // any number of newer epochs meanwhile, this query still reads the one
  // it started on.
  std::shared_ptr<const Epoch> epoch = epochs_->Current();
  if (epoch == nullptr) {
    return HttpError(503, "Service Unavailable", "no graph published yet");
  }

  int64_t deadline_ms = options_.default_deadline_ms;
  std::string_view raw = HttpQueryParam(request.params, "deadline_ms");
  if (!raw.empty()) {
    if (!ParseInt64(raw, &deadline_ms) || deadline_ms < 0) {
      return HttpError(400, "Bad Request", "bad deadline_ms parameter");
    }
  }
  if (options_.max_deadline_ms > 0) {
    deadline_ms = deadline_ms == 0
                      ? options_.max_deadline_ms
                      : std::min(deadline_ms, options_.max_deadline_ms);
  }
  int64_t max_steps =
      static_cast<int64_t>(options_.default_max_steps);
  raw = HttpQueryParam(request.params, "max_steps");
  if (!raw.empty()) {
    if (!ParseInt64(raw, &max_steps) || max_steps < 0) {
      return HttpError(400, "Bad Request", "bad max_steps parameter");
    }
  }
  if (options_.max_steps_limit > 0) {
    max_steps = max_steps == 0
                    ? static_cast<int64_t>(options_.max_steps_limit)
                    : std::min(max_steps,
                               static_cast<int64_t>(
                                   options_.max_steps_limit));
  }

  query::ExecOptions exec_options;
  exec_options.deadline_ms = deadline_ms;
  exec_options.max_steps = static_cast<uint64_t>(max_steps);
  // Debug knob: fast_path=0 forces the generic executor (plan comparison,
  // and the only way tests can make a query reliably slow).
  if (HttpQueryParam(request.params, "fast_path") == "0") {
    exec_options.use_csr_fast_path = false;
  }
  // The registry aliases this token, so /debug/cancel, the watchdog's
  // cancel action, and Stop() all trip the same switch the executor polls.
  exec_options.cancel = worker_cancel_[worker_index].get();

  // Everything from here to serialization runs under the request's trace
  // scope: session/executor/kernel spans parent under the root span and
  // land in the per-request sink, and the session reads the trace id and
  // queue wait for its own telemetry (query log, /stats, slow-query ring).
  query::Timeline timeline;
  uint64_t fingerprint = 0;
  Result<query::QueryResult> result = [&] {
    obs::TraceScope scope(item.trace, item.sink.get(), queue_wait_us);
    return query::RunQuery(epoch->db, request.body, exec_options,
                           &fingerprint);
  }();
  if (result.ok()) {
    timeline = result->stats.timeline;
  }
  timeline.queue_us = queue_wait_us;

  HttpResponse response;
  if (result.ok()) {
    const uint64_t serialize_start = obs::Trace::NowMicros();
    std::string body =
        RenderResultJsonOpen(*result, epoch->db, epoch->sequence);
    timeline.serialize_us = obs::Trace::NowMicros() - serialize_start;
    timeline.total_us = obs::Trace::NowMicros() - item.enqueue_trace_us;
    result->stats.timeline = timeline;
    body += ", \"trace_id\": \"" + obs::TraceIdHex(item.trace) + "\"";
    body += ", \"timeline\": " + RenderTimelineJson(timeline) + "}\n";
    response = JsonResponse(200, "OK", std::move(body));
  } else {
    timeline.total_us = obs::Trace::NowMicros() - item.enqueue_trace_us;
    response = QueryErrorResponse(result.status());
  }

  // Tail-sampling decision: keep the span tree for anything that went
  // wrong, anything slow, and anything the client explicitly traced.
  const double latency_ms =
      static_cast<double>(timeline.total_us) / 1000.0;
  std::string reason;
  if (!result.ok()) {
    reason = result.status().code() == StatusCode::kCancelled ? "cancelled"
                                                              : "error";
  } else {
    // The session's slow-query threshold doubles as the retention bar, so
    // "it was logged slow" and "its trace was retained" agree.
    const int64_t slow_ms = obs::Config().slow_query_ms;
    if (slow_ms >= 0 && latency_ms >= static_cast<double>(slow_ms)) {
      reason = "slow";
    } else if (item.trace_requested) {
      reason = "requested";
    }
  }
  if (!reason.empty() && item.sink != nullptr) {
    obs::StoredTrace stored;
    stored.trace_hi = item.trace.trace_hi;
    stored.trace_lo = item.trace.trace_lo;
    stored.reason = std::move(reason);
    stored.status =
        result.ok() ? "ok" : StatusCodeName(result.status().code());
    stored.fingerprint = obs::FingerprintHex(fingerprint);
    stored.ts_us = obs::Trace::UnixMicros();
    stored.latency_ms = latency_ms;
    stored.dropped_spans = item.sink->dropped();
    stored.spans = item.sink->TakeSpans();
    // The root span covers enqueue through serialization; its parent is
    // the client's span id when one arrived via traceparent.
    obs::CollectedSpan root;
    root.name = "server.request";
    root.span_id = item.trace.span_id;
    root.parent_id = item.root_parent_id;
    root.start_us = item.enqueue_trace_us;
    root.dur_us = timeline.total_us;
    stored.spans.push_back(root);
    obs::TraceStore::Global().Retain(std::move(stored));
  }
  return response;
}

void QueryServer::Stop() {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_relaxed);
  obs::Readiness::Global().SetDraining(true, "query server draining");
  // 1. Stop accepting new connections.
  if (listener_) listener_->Stop();
  // 2. Cancel stragglers: trip every worker's token (the query registry
  //    aliases these, so in-flight queries observe it on the executor's
  //    poll cadence and return kCancelled).
  for (auto& token : worker_cancel_) {
    token->store(true, std::memory_order_relaxed);
  }
  // 3. Refuse whatever was admitted but never started.
  std::vector<AdmissionQueue::Item> leftover = queue_.Shutdown();
  for (auto& item : leftover) {
    DrainedCounter().Add();
    item.conn.Respond(
        HttpError(503, "Service Unavailable", "server draining"));
  }
  // 4. Join the pool — workers exit once the queue reports shutdown.
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // 5. Flush the structured query log so the workload trace survives the
  //    process.
  obs::QueryLog::Global().Flush();
  obs::LogInfo("server", "query server drained");
}

}  // namespace frappe::server
