// The traced run's layer sweep: each layer's public calls, timed one by one
// on the run's seeded inputs, each inside a span. Every traced run makes
// the same sweep, so every per-layer metric is measured on every workload;
// the workload's own traced traffic adds obs.trace_overhead_pct and its
// spans to the per-layer self times.

#include <algorithm>
#include <map>

#include "analysis/debugging.h"
#include "analysis/slicing.h"
#include "graph/analytics.h"
#include "graph/snapshot.h"
#include "graph/traversal.h"
#include "query/parser.h"
#include "query/session.h"
#include "workloads.h"

namespace frappe::perfbench {

namespace {

using graph::NodeId;
using model::EdgeKind;

double UsSince(Clock::time_point start) { return MsSince(start) * 1000.0; }

// Per-class executor and session figures from in-process runs. Timeline
// and CPU figures are whole microseconds, so they are averaged over the
// class's instances rather than taken as a median.
struct ClassStats {
  Samples plan_us, exec_us, steps, db_hits, scanned_bytes, cpu_us,
      alloc_bytes, peak_bytes, hits_per_row, parse_us, execute_wall_us,
      run_wall_us;
};

void MeasureClass(const query::Database& db,
                  const std::vector<std::string>& texts, int reps,
                  ClassStats* s, Outcome* out) {
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& text : texts) {
      Clock::time_point start = Clock::now();
      Result<query::Query> parsed = [&] {
        Span span("query.parse");
        return query::Parse(text);
      }();
      s->parse_us.Add(UsSince(start));
      if (!parsed.ok()) {
        out->Fail("parse: " + text);
        continue;
      }
      start = Clock::now();
      {
        Span span("query.execute");
        if (!query::Execute(db, *parsed).ok()) out->Fail("execute: " + text);
      }
      s->execute_wall_us.Add(UsSince(start));
      start = Clock::now();
      Result<query::QueryResult> result = [&] {
        Span span("query.run");
        return query::RunQuery(db, text);
      }();
      s->run_wall_us.Add(UsSince(start));
      if (!result.ok()) {
        out->Fail("run: " + text);
        continue;
      }
      if (rep > 0) continue;
      // The session times planning only for EXPLAIN/PROFILE.
      Result<query::QueryResult> explained = [&] {
        Span span("query.explain");
        return query::RunQuery(db, "EXPLAIN " + text);
      }();
      if (explained.ok()) {
        s->plan_us.Add(
            static_cast<double>(explained->stats.timeline.plan_us));
      }
      const query::ExecStats& st = result->stats;
      s->exec_us.Add(static_cast<double>(st.timeline.exec_us));
      s->steps.Add(static_cast<double>(st.steps));
      s->db_hits.Add(static_cast<double>(st.db_hits.Total()));
      s->scanned_bytes.Add(static_cast<double>(st.scanned_bytes));
      s->cpu_us.Add(static_cast<double>(st.cpu_us));
      s->alloc_bytes.Add(static_cast<double>(st.alloc_bytes));
      s->peak_bytes.Add(static_cast<double>(st.peak_bytes));
      s->hits_per_row.Add(static_cast<double>(st.db_hits.Total()) /
                          static_cast<double>(std::max<size_t>(
                              1, result->size())));
    }
  }
}

void ReportClass(const std::string& name, const ClassStats& s,
                 MetricSet* m) {
  const std::string p = "query." + name + ".";
  m->Set(p + "plan_us", s.plan_us.Mean(), "us");
  m->Set(p + "exec_us", s.exec_us.Mean(), "us");
  m->Set(p + "steps", s.steps.Median(), "count");
  m->Set(p + "db_hits", s.db_hits.Median(), "count");
  m->Set(p + "scanned_bytes", s.scanned_bytes.Median(), "bytes");
  m->Set(p + "cpu_us", s.cpu_us.Mean(), "us");
  m->Set(p + "alloc_bytes", s.alloc_bytes.Median(), "bytes");
  m->Set(p + "peak_bytes", s.peak_bytes.Median(), "bytes");
  m->Set(p + "hits_per_row", s.hits_per_row.Median(), "ratio");
}

template <typename T, typename F>
std::vector<std::string> Texts(const std::vector<T>& items, size_t limit,
                               F make) {
  std::vector<std::string> out;
  for (size_t i = 0; i < items.size() && i < limit; ++i) {
    out.push_back(make(items[i]));
  }
  return out;
}

// Fig. 5 PROFILE: the exists() Filter's time, steps and the share of its
// input rows that pass.
void ProfileFig5(const query::Database& db, const std::string& text,
                 Samples* filter_ms, Samples* filter_steps,
                 Samples* hit_ratio, Outcome* out) {
  Result<query::Query> parsed = query::Parse(text);
  Result<query::QueryResult> result = [&] {
    Span span("query.profile");
    return query::RunQuery(db, "PROFILE " + text);
  }();
  if (!parsed.ok() || !result.ok()) {
    out->Fail("PROFILE " + text);
    return;
  }
  size_t where = parsed->clauses.size();
  for (size_t i = 0; i < parsed->clauses.size(); ++i) {
    if (std::holds_alternative<query::WhereClause>(parsed->clauses[i])) {
      where = i;
    }
  }
  const query::OperatorStats* filter = nullptr;
  const query::OperatorStats* before = nullptr;
  for (const query::OperatorStats& op : result->stats.operators) {
    if (op.clause_index == where) filter = &op;
    if (op.clause_index + 1 == where) before = &op;
  }
  if (filter == nullptr || before == nullptr) {
    out->Fail("PROFILE of Fig. 5 has no Filter operator");
    return;
  }
  filter_ms->Add(filter->time_ms);
  filter_steps->Add(static_cast<double>(filter->steps));
  hit_ratio->Add(static_cast<double>(filter->rows) /
                 static_cast<double>(std::max<uint64_t>(1, before->rows)));
}

void SweepKernel(const RunConfig& config, double scale, Outcome* out) {
  MetricSet& m = out->metrics;
  KernelInput input;
  if (!EnsureKernel(config.cache_dir, scale, config.seed, &input)) {
    out->Fail("cannot prepare the kernel input");
    return;
  }
  const Instances& inst = input.instances;

  {
    Clock::time_point start = Clock::now();
    Result<graph::LoadedSnapshot> loaded = [&] {
      Span span("graph.snapshot.load");
      return graph::LoadSnapshot(input.snapshot_path);
    }();
    const double ms = MsSince(start);
    if (!loaded.ok()) {
      out->Fail("load snapshot: " + loaded.status().ToString());
      return;
    }
    m.Set("graph.snapshot.load_ms", ms, "ms");
    m.Set("graph.snapshot.load_mb_s",
          static_cast<double>(loaded->sizes.total()) / 1e6 / (ms / 1e3),
          "MB/s");
  }

  std::unique_ptr<Serving> serving =
      StartServing(input.snapshot_path, config.nproc, out);
  if (serving == nullptr) return;
  std::shared_ptr<const server::Epoch> epoch = serving->epochs->Current();
  const query::Database& db = epoch->db;
  const graph::GraphView& view = epoch->view();
  const model::Schema& schema = epoch->snapshot->schema();
  const graph::TypeId calls = schema.edge_type(EdgeKind::kCalls);
  const graph::EdgeFilter filter = graph::EdgeFilter::Of({calls});

  // CSR builds.
  Clock::time_point start = Clock::now();
  graph::CsrView csr = [&] {
    Span span("graph.csr.build");
    return graph::CsrView::Build(view);
  }();
  m.Set("graph.csr.build_ms", MsSince(start), "ms");
  {
    Span span("graph.csr.reverse_build");
    csr.In(0);
  }
  m.Set("graph.csr.reverse_build_ms", csr.ReverseBuildMs(), "ms");

  // Index lookups.
  Samples lookup_us;
  for (const std::string& name : inst.lookup) {
    start = Clock::now();
    Span span("graph.index.lookup");
    if (db.name_index->Lookup("short_name", name).size() != 1) {
      out->Fail("index lookup of " + name);
    }
    lookup_us.Add(UsSince(start));
  }
  m.Set("graph.index.lookup_us", lookup_us.Median(), "us");

  // Closure kernel at the default lane count and at one lane.
  graph::analytics::FrontierEngine engine;
  Samples closure_ms, closure_1lane_ms, edges, levels, lanes;
  std::map<std::string, double> closure_ms_by_fn;
  for (const ClosureInstance& c : inst.closure) {
    NodeId seed = UniqueNode(db, c.function);
    for (size_t threads : {size_t{0}, size_t{1}}) {
      graph::analytics::Options options;
      options.threads = threads;
      graph::analytics::Metrics metrics;
      start = Clock::now();
      {
        Span span("graph.analytics.closure");
        if (!engine.Closure(csr, {seed}, filter, options, &metrics).ok()) {
          out->Fail("closure kernel on " + c.function);
        }
      }
      const double ms = MsSince(start);
      if (threads == 1) {
        closure_1lane_ms.Add(ms);
        continue;
      }
      closure_ms.Add(ms);
      closure_ms_by_fn[c.function] = ms;
      edges.Add(static_cast<double>(metrics.steps));
      levels.Add(static_cast<double>(metrics.levels));
      lanes.Add(static_cast<double>(metrics.lanes_used));
    }
  }
  m.Set("graph.analytics.closure_ms", closure_ms.Median(), "ms");
  m.Set("graph.analytics.closure_1lane_ms", closure_1lane_ms.Median(), "ms");
  m.Set("graph.analytics.edges_scanned", edges.Median(), "count");
  m.Set("graph.analytics.levels", levels.Median(), "count");
  m.Set("graph.analytics.lanes_used", lanes.Median(), "count");

  // Store-walking reachability probes of Fig. 5.
  Samples reach_ms, probes;
  for (const DebugInstance& d : inst.debug) {
    // The (direct, writer) pairs the query's exists() predicate probes.
    DebugParts parts = ResolveDebug(view, schema, db, d);
    start = Clock::now();
    for (NodeId direct : parts.early_callees) {
      for (NodeId writer : parts.writers) {
        Span span("graph.traversal.reach");
        graph::IsReachable(view, direct, writer, filter);
      }
    }
    reach_ms.Add(MsSince(start));
    probes.Add(static_cast<double>(parts.early_callees.size() *
                                   parts.writers.size()));
  }
  m.Set("graph.traversal.reach_ms", reach_ms.Median(), "ms");
  m.Set("graph.traversal.probes", probes.Mean(), "count");

  // Query classes in process: parse, plan, execute, session overhead.
  const size_t kHeavy = 4, kLight = 16;
  ClassStats search, debug, closure, point;
  MeasureClass(db, Texts(inst.search, kLight, SearchQuery), 1, &search, out);
  MeasureClass(db, Texts(inst.debug, kHeavy, DebugQuery), 1, &debug, out);
  MeasureClass(db, Texts(inst.closure, kHeavy, ClosureQuery), 1, &closure,
               out);
  MeasureClass(db, Texts(inst.lookup, kLight, LookupQuery), 8, &point, out);
  ReportClass("search", search, &m);
  ReportClass("debug", debug, &m);
  ReportClass("closure", closure, &m);
  ReportClass("point", point, &m);
  m.Set("query.parse_us", point.parse_us.Median(), "us");
  // What Session::Run adds around Execute for an indexed point query.
  m.Set("query.session_us",
        point.run_wall_us.Median() - point.execute_wall_us.Median(), "us");

  Samples filter_ms, filter_steps, hit_ratio;
  for (size_t i = 0; i < inst.debug.size() && i < 2; ++i) {
    ProfileFig5(db, DebugQuery(inst.debug[i]), &filter_ms, &filter_steps,
                &hit_ratio, out);
  }
  m.Set("query.fig5.filter_ms", filter_ms.Median(), "ms");
  m.Set("query.fig5.filter_steps", filter_steps.Median(), "count");
  m.Set("query.fig5.probe_hit_ratio", hit_ratio.Median(), "ratio");

  Samples outside;
  for (size_t i = 0; i < inst.closure.size() && i < kHeavy; ++i) {
    auto result = query::RunQuery(db, ClosureQuery(inst.closure[i]));
    if (!result.ok()) continue;
    outside.Add(static_cast<double>(result->stats.timeline.exec_us) / 1e3 -
                closure_ms_by_fn[inst.closure[i].function]);
  }
  m.Set("query.fig6.outside_kernel_ms", outside.Median(), "ms");

  // Embedded analysis API.
  Samples slice_ms, parallel_slice_ms, suspect_ms;
  for (size_t i = 0; i < inst.closure.size() && i < kHeavy; ++i) {
    NodeId fn = UniqueNode(db, inst.closure[i].function);
    start = Clock::now();
    {
      Span span("analysis.slice");
      analysis::BackwardSlice(view, schema, fn);
    }
    slice_ms.Add(MsSince(start));
    start = Clock::now();
    {
      Span span("analysis.parallel_slice");
      analysis::ParallelBackwardSlice(csr, schema, fn, 0);
    }
    parallel_slice_ms.Add(MsSince(start));
  }
  for (size_t i = 0; i < inst.debug.size() && i < kHeavy; ++i) {
    DebugParts parts = ResolveDebug(view, schema, db, inst.debug[i]);
    start = Clock::now();
    {
      Span span("analysis.suspect_writes");
      analysis::FindSuspectWrites(view, schema, parts.from, parts.to,
                                  parts.field, inst.debug[i].line);
    }
    suspect_ms.Add(MsSince(start));
  }
  m.Set("analysis.slice_ms", slice_ms.Median(), "ms");
  m.Set("analysis.parallel_slice_ms", parallel_slice_ms.Median(), "ms");
  m.Set("analysis.suspect_writes_ms", suspect_ms.Median(), "ms");

  // Server: Fig. 6 serialization, then the point mix on the serve ladder.
  Samples closure_serialize_us;
  for (size_t i = 0; i < inst.closure.size() && i < kHeavy; ++i) {
    HttpReply reply = [&] {
      Span span("server.post");
      return PostQuery(serving->port(), ClosureQuery(inst.closure[i]),
                       60000);
    }();
    closure_serialize_us.Add(
        static_cast<double>(JsonField(reply.body, "serialize_us")));
  }
  m.Set("server.closure.serialize_us", closure_serialize_us.Median(), "us");

  std::vector<Request> mix = PointMix(inst, db, out);
  double max_qps = 0;
  uint64_t attempted = 0, shed = 0, timeouts = 0, errors = 0;
  LoadResult first;
  for (double rate : ServeLadder()) {
    LoadResult load =
        RunOpenLoop(serving->port(), mix, rate, 0.5, config.nproc,
                    config.seed);
    // The ladder probes for the knee, so its failures are expected and
    // not counted against the run; wrong answers still are.
    if (load.wrong_rows > 0) out->Fail("wrong row counts on the ladder");
    attempted += load.attempted;
    shed += load.shed;
    timeouts += load.timeouts;
    errors += load.errors;
    if (first.attempted == 0) first = load;
    if (load.failed > 0 || load.latency_ms.Percentile(99) > 10 ||
        load.backlog_growth_ms > 5) {
      break;
    }
    max_qps = load.achieved_rate;
  }
  const double per_attempt = 1.0 / static_cast<double>(
                                       std::max<uint64_t>(1, attempted));
  m.Set("server.max_qps", max_qps, "req/s");
  m.Set("server.queue_us", first.queue_us.Mean(), "us");
  m.Set("server.serialize_us", first.serialize_us.Mean(), "us");
  m.Set("server.http_us", first.http_us.Median(), "us");
  m.Set("server.generator_late_ms", first.late_ms.Percentile(99), "ms");
  m.Set("server.shed", static_cast<double>(shed) * per_attempt, "ratio");
  m.Set("server.timeouts", static_cast<double>(timeouts) * per_attempt,
        "ratio");
  m.Set("server.errors", static_cast<double>(errors) * per_attempt, "ratio");
}

void SweepIngest(const RunConfig& config, double scale, Outcome* out) {
  MetricSet& m = out->metrics;
  SourceInput source;
  if (!EnsureSourceTree(config.cache_dir, scale, config.seed, &source)) {
    out->Fail("cannot prepare the source tree");
    return;
  }
  std::unique_ptr<Serving> serving = StartServing("", config.nproc, out);
  if (serving == nullptr) return;
  CycleTimes t;
  Request probe{"MATCH (n:module) RETURN n", -1, 0};
  if (!IngestCycle(source, serving.get(), config.work_dir + "/sweep.fsnap",
                   probe, &t, out)) {
    return;
  }
  m.Set("extractor.compile_ms", t.compile_ms, "ms");
  m.Set("extractor.link_ms", t.link_ms, "ms");
  m.Set("extractor.lines_per_s",
        static_cast<double>(source.total_lines) /
            ((t.compile_ms + t.link_ms) / 1e3),
        "lines/s");
  m.Set("extractor.units", static_cast<double>(t.units), "count");
  m.Set("extractor.unresolved", static_cast<double>(t.unresolved), "count");
  m.Set("graph.index.build_ms", t.index_ms, "ms");
  m.Set("graph.stats.analyze_ms", t.analyze_ms, "ms");
  m.Set("graph.snapshot.save_ms", t.save_ms, "ms");
  m.Set("graph.snapshot.save_mb_s",
        static_cast<double>(t.snapshot_bytes) / 1e6 / (t.save_ms / 1e3),
        "MB/s");
  m.Set("graph.snapshot.bytes", static_cast<double>(t.snapshot_bytes),
        "bytes");
  m.Set("server.epoch.publish_ms", t.publish_ms, "ms");
}

}  // namespace

void RunLayerSweep(const RunConfig& config, Outcome* out) {
  const bool ingest = config.workload == "ingest-publish";
  SweepKernel(config,
              ingest ? DefaultScale("paper-queries") : config.scale, out);
  SweepIngest(config,
              ingest ? config.scale : DefaultScale("ingest-publish"), out);
}

}  // namespace frappe::perfbench
