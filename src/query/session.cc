#include "query/session.h"

#include <chrono>
#include <cstdio>

#include "common/string_util.h"
#include "obs/config.h"
#include "obs/fingerprint.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/query_registry.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "query/explain.h"
#include "query/parser.h"

namespace frappe::query {

namespace {

std::function<void(const std::string&)>& SlowQuerySink() {
  static std::function<void(const std::string&)>* sink =
      new std::function<void(const std::string&)>();  // never destroyed
  return *sink;
}

void EmitSlowQueryLog(const std::string& message) {
  if (SlowQuerySink()) {
    SlowQuerySink()(message);
  } else {
    std::fputs(message.c_str(), stderr);
  }
}

// Workload telemetry for one finished (or parse-failed) execution: the
// per-fingerprint stats table always, the structured query log when
// enabled. Both are fire-and-forget — neither blocks the query path. The
// trace id ties all three views (stats, qlog, retained traces) together;
// the timeline says where the latency went.
void RecordWorkloadTelemetry(const obs::NormalizedQuery& normalized,
                             std::string_view raw_text, bool ok,
                             std::string_view status_name, double elapsed_ms,
                             uint64_t rows, uint64_t db_hits, bool fast_path,
                             const obs::TraceContext& trace,
                             const Timeline& timeline,
                             const obs::ResourceTracker& resources) {
  uint64_t latency_us =
      elapsed_ms > 0 ? static_cast<uint64_t>(elapsed_ms * 1000.0) : 0;
  obs::QueryStats::Entry& entry = obs::QueryStats::Global().GetOrCreate(
      normalized.fingerprint, normalized.text);
  entry.Record(ok, latency_us, rows, db_hits);
  entry.RecordTimeline(timeline.queue_us, timeline.parse_us,
                       timeline.plan_us, timeline.exec_us);
  entry.RecordResources(resources.cpu_us(), resources.alloc_bytes(),
                        resources.peak_bytes());
  // Process-wide latency histogram with the trace id pinned per bucket, so
  // a /metrics p99 spike links straight to a retained trace.
  static obs::Histogram& latency_hist =
      obs::Registry::Global().GetHistogram("query.latency_us");
  latency_hist.RecordWithExemplar(latency_us, trace.trace_hi, trace.trace_lo);
  // Resource attribution histograms, exemplar-linked the same way: a CPU or
  // allocation outlier on /metrics names the trace that caused it.
  static obs::Histogram& cpu_hist =
      obs::Registry::Global().GetHistogram("query.cpu_us");
  static obs::Histogram& alloc_hist =
      obs::Registry::Global().GetHistogram("query.alloc_bytes");
  static obs::Histogram& peak_hist =
      obs::Registry::Global().GetHistogram("query.peak_bytes");
  cpu_hist.RecordWithExemplar(resources.cpu_us(), trace.trace_hi,
                              trace.trace_lo);
  alloc_hist.RecordWithExemplar(resources.alloc_bytes(), trace.trace_hi,
                                trace.trace_lo);
  peak_hist.RecordWithExemplar(resources.peak_bytes(), trace.trace_hi,
                               trace.trace_lo);
  obs::QueryLog& qlog = obs::QueryLog::Global();
  if (qlog.enabled()) {
    obs::QueryLogRecord record;
    record.ts_us = obs::Trace::UnixMicros();
    record.fingerprint = normalized.fingerprint;
    record.trace_id = obs::TraceIdHex(trace);
    record.query = normalized.text;
    record.raw = std::string(raw_text);
    record.status = std::string(status_name);
    record.latency_us = latency_us;
    record.rows = rows;
    record.db_hits = db_hits;
    record.fast_path = fast_path;
    record.queue_us = timeline.queue_us;
    record.parse_us = timeline.parse_us;
    record.plan_us = timeline.plan_us;
    record.exec_us = timeline.exec_us;
    record.cpu_us = resources.cpu_us();
    record.alloc_bytes = resources.alloc_bytes();
    record.peak_bytes = resources.peak_bytes();
    qlog.Record(std::move(record));
  }
}

}  // namespace

void SetSlowQueryLogSinkForTesting(
    std::function<void(const std::string&)> sink) {
  SlowQuerySink() = std::move(sink);
}

Database MakeFrappeDatabase(const graph::GraphView& view,
                            const model::Schema& schema,
                            const graph::NameIndex* name_index,
                            const graph::LabelIndex* label_index) {
  Database db;
  db.view = &view;
  db.name_index = name_index;
  db.label_index = label_index;
  db.display_name_key = schema.key(model::PropKey::kShortName);
  db.resolve_label = [&view, schema](std::string_view label) {
    std::vector<graph::TypeId> out;
    // Group labels (Table 6: symbol / type / container) expand to their
    // member node types.
    model::NodeGroup group = model::NodeGroupFromName(label);
    if (group != model::NodeGroup::kCount) {
      for (model::NodeKind kind : model::GroupMembers(group)) {
        out.push_back(schema.node_type(kind));
      }
      return out;
    }
    graph::TypeId id = view.node_types().Find(ToLower(label));
    if (id != graph::kInvalidType) out.push_back(id);
    return out;
  };
  db.resolve_edge_type =
      [&view, schema](std::string_view name) -> std::optional<graph::TypeId> {
    // Edge groups (link / preprocessor / containment / reference) are not
    // expressible as a single type id; resolve concrete types only. (FQL
    // alternation `-[:a|b|c]->` covers the grouped case.)
    graph::TypeId id = view.edge_types().Find(ToLower(name));
    if (id == graph::kInvalidType) return std::nullopt;
    return id;
  };
  db.resolve_property =
      [&view](std::string_view name) -> std::optional<graph::KeyId> {
    graph::KeyId id =
        view.keys().Find(model::CanonicalPropertyName(name));
    if (id == graph::kInvalidKey) return std::nullopt;
    return id;
  };
  db.csr = view.PackedCache();
  return db;
}

Session::Session(const model::CodeGraph& code_graph)
    : code_graph_(code_graph),
      name_index_(code_graph.BuildNameIndex()),
      label_index_(graph::LabelIndex::Build(code_graph.view())),
      db_(MakeFrappeDatabase(code_graph.view(), code_graph.schema(),
                             &name_index_, &label_index_)) {}

Result<std::unique_ptr<SnapshotSession>> SnapshotSession::Open(
    const std::string& path, const graph::SnapshotManager::Options& options) {
  FRAPPE_TRACE_SPAN("session.open_snapshot");
  graph::SnapshotManager manager(path, options);
  FRAPPE_ASSIGN_OR_RETURN(graph::SnapshotManager::Loaded loaded,
                          manager.Load());
  // `new` rather than make_unique: the constructor is private.
  std::unique_ptr<SnapshotSession> session(new SnapshotSession());
  session->store_ = std::move(loaded.snapshot.store);
  session->warnings_ = std::move(loaded.snapshot.warnings);
  session->generation_ = loaded.generation;
  session->loaded_path_ = std::move(loaded.path);
  if (loaded.snapshot.index.has_value()) {
    session->name_index_ = std::move(*loaded.snapshot.index);
  } else {
    // Index-less snapshot (or one whose index section was dropped as
    // unrecoverable): build the standard Frappé auto-index fields.
    model::CodeGraph scratch;
    session->name_index_ =
        graph::NameIndex::Build(*session->store_, scratch.IndexFields());
  }
  session->label_index_ = graph::LabelIndex::Build(*session->store_);
  session->schema_ = model::Schema::Install(session->store_.get());
  session->db_ =
      MakeFrappeDatabase(*session->store_, session->schema_,
                         &session->name_index_, &session->label_index_);
  return session;
}

Result<QueryResult> Session::Run(std::string_view query_text,
                                 const ExecOptions& options) const {
  return RunQuery(db_, query_text, options);
}

Result<QueryResult> RunQuery(const Database& db, std::string_view query_text,
                             const ExecOptions& options) {
  FRAPPE_TRACE_SPAN("session.run");
  static obs::Counter& queries =
      obs::Registry::Global().GetCounter("session.queries");
  static obs::Counter& slow_queries =
      obs::Registry::Global().GetCounter("session.slow_queries");
  queries.Add();

  // Resource attribution for the whole call: the scope publishes the
  // tracker through TLS, so the allocation seam, the executor's budget
  // poll, and the analytics kernel all charge this query. The budget itself
  // comes from FRAPPE_QUERY_MEM_BYTES (0 = unlimited).
  const obs::RuntimeConfig& config = obs::Config();
  obs::ResourceTracker resources;
  resources.set_budget_bytes(config.query_mem_bytes);
  obs::ResourceScope resource_scope(&resources);

  // The workload identity of this query: literals stripped, case folded,
  // hashed. Computed up front so parse failures aggregate by shape too.
  const obs::NormalizedQuery normalized = obs::NormalizeQuery(query_text);

  // Trace identity: adopt the request context the query server installed
  // via TraceScope, or mint a fresh id for direct callers (shell, replay,
  // tests) so the query log, /stats and the slow-query ring still carry a
  // joinable trace id. Minting does NOT activate span collection — the
  // disabled-span fast path stays one TLS load.
  obs::TraceContext trace = obs::Trace::CurrentContext();
  if (!trace.valid()) trace = obs::GenerateTraceContext();
  Timeline timeline;
  timeline.queue_us = obs::Trace::CurrentQueueWaitUs();

  // Active-query registry: this query is visible on /debug/queryz (and
  // cancellable) for the whole call; the RAII handle removes the entry on
  // every exit path — parse failure, EXPLAIN, success, or abort.
  obs::QueryRegistry::Handle active = obs::QueryRegistry::Global().Register(
      normalized.fingerprint, normalized.text, std::string(query_text),
      options.cancel, trace.trace_hi, trace.trace_lo, timeline.queue_us);

  Query query;
  {
    FRAPPE_TRACE_SPAN("session.parse");
    const uint64_t parse_start = obs::Trace::NowMicros();
    Result<Query> parsed = Parse(query_text);
    timeline.parse_us = obs::Trace::NowMicros() - parse_start;
    if (!parsed.ok()) {
      resource_scope.SyncCpu();
      RecordWorkloadTelemetry(normalized, query_text, /*ok=*/false,
                              StatusCodeName(parsed.status().code()),
                              /*elapsed_ms=*/0.0, /*rows=*/0, /*db_hits=*/0,
                              /*fast_path=*/false, trace, timeline,
                              resources);
      return parsed.status();
    }
    query = std::move(*parsed);
  }

  if (query.mode == QueryMode::kExplain) {
    FRAPPE_TRACE_SPAN("session.plan");
    const uint64_t plan_start = obs::Trace::NowMicros();
    QueryResult result;
    FRAPPE_ASSIGN_OR_RETURN(result.plan, Explain(db, query));
    timeline.plan_us = obs::Trace::NowMicros() - plan_start;
    result.stats.timeline = timeline;
    return result;
  }

  ExecOptions exec_options = options;
  if (query.mode == QueryMode::kProfile) exec_options.profile = true;
  if (active.entry() != nullptr) {
    // The registry's token aliases the caller's when one was supplied, so
    // both /debug/cancel and the caller can trip the same switch.
    exec_options.cancel = active.entry()->cancel_token;
    if (exec_options.progress == nullptr) {
      exec_options.progress = &active.entry()->progress;
    }
  }

  const auto exec_start = std::chrono::steady_clock::now();
  const uint64_t exec_start_us = obs::Trace::NowMicros();
  Result<QueryResult> result = [&] {
    FRAPPE_TRACE_SPAN("session.execute");
    return Execute(db, query, exec_options);
  }();
  timeline.exec_us = obs::Trace::NowMicros() - exec_start_us;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - exec_start)
          .count();

  if (result.ok() && query.mode == QueryMode::kProfile) {
    FRAPPE_TRACE_SPAN("session.plan");
    const uint64_t plan_start = obs::Trace::NowMicros();
    FRAPPE_ASSIGN_OR_RETURN(result->plan,
                            ProfilePlan(db, query, result->stats));
    timeline.plan_us = obs::Trace::NowMicros() - plan_start;
  }

  if (result.ok()) result->stats.timeline = timeline;

  // Flush this thread's CPU delta so the totals below include the parse,
  // plan, and execute work just done.
  resource_scope.SyncCpu();
  if (result.ok()) {
    result->stats.cpu_us = resources.cpu_us();
    result->stats.alloc_bytes = resources.alloc_bytes();
    result->stats.peak_bytes = resources.peak_bytes();
    // scanned_bytes was filled by the executor.
  }

  const char* status_name =
      result.ok() ? "ok" : StatusCodeName(result.status().code());
  RecordWorkloadTelemetry(
      normalized, query_text, result.ok(), status_name, elapsed_ms,
      result.ok() ? result->rows.size() : 0,
      result.ok() ? result->stats.db_hits.Total() : 0,
      result.ok() && result->stats.fast_path_taken, trace, timeline,
      resources);

  // Slow-query log: fires for successes and budget breaches alike — the
  // aborted Figure 6 run is exactly the query an operator wants logged.
  // Identified by fingerprint + normalized text (not the raw query):
  // that's the key the /stats fingerprint table and the query log use, so
  // the three views join on `fp` — and literals stay out of the log.
  const int64_t threshold_ms = config.slow_query_ms;
  if (threshold_ms >= 0 && elapsed_ms >= static_cast<double>(threshold_ms)) {
    slow_queries.Add();
    std::string message = "[frappe] slow query (" +
                          std::to_string(elapsed_ms) + " ms >= " +
                          std::to_string(threshold_ms) + " ms) fp=" +
                          obs::FingerprintHex(normalized.fingerprint) +
                          " trace=" + obs::TraceIdHex(trace) + ": " +
                          normalized.text + "\n";
    if (result.ok() && !result->plan.empty()) {
      message += result->plan;
    } else if (Result<std::string> plan = Explain(db, query); plan.ok()) {
      message += *plan;
    }
    if (!result.ok()) {
      message += "status: " + result.status().ToString() + "\n";
    }
    EmitSlowQueryLog(message);
    obs::SlowQueryRing::Record slow;
    slow.ts_us = obs::Trace::UnixMicros();
    slow.fingerprint = normalized.fingerprint;
    slow.trace_id = obs::TraceIdHex(trace);
    slow.normalized = normalized.text;
    slow.latency_ms = elapsed_ms;
    slow.threshold_ms = threshold_ms;
    slow.status = status_name;
    obs::SlowQueryRing::Global().Push(std::move(slow));
  }
  return result;
}

}  // namespace frappe::query
