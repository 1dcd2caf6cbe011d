// paper-queries: the Table 5 use cases as one closed-loop client sends
// them. Each step runs sixteen Fig. 3 code searches, one Fig. 5 debugging
// and one Fig. 6 comprehension (CSR fast path) instance as POST /query,
// then the embedded-API slice and impact set of the §6.1 footnote on the
// Fig. 6 seed; steps repeat until the run's time is up, cycling through
// the instances. Almost all the time is spent in graph traversal, graph
// analytics and the query executor.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "analysis/debugging.h"
#include "analysis/slicing.h"
#include "graph/analytics.h"
#include "graph/traversal.h"
#include "query/session.h"
#include "workloads.h"

namespace frappe::perfbench {

namespace {

using graph::NodeId;
using model::EdgeKind;

// Instances per heavy class in one run, so that each repeats several times
// in a run. A step runs one of each heavy class and, since Fig. 3 costs
// well under a millisecond, sixteen of the 64 Fig. 3 instances.
constexpr size_t kSteps = 8;
constexpr size_t kSearchesPerStep = 16;

struct Embedded {
  const graph::GraphView& view;
  const model::Schema& schema;
  const query::Database& db;
};

Embedded EmbeddedOf(const server::Epoch& epoch) {
  return {epoch.view(), epoch.snapshot->schema(), epoch.db};
}

// The embedded-API classes on one function: its callees and callers
// (BackwardSlice + ForwardSlice), and its call/member-access impact set.
void SliceOp(const Embedded& e, NodeId fn) {
  Span span("analysis.slice_op");
  analysis::BackwardSlice(e.view, e.schema, fn);
  analysis::ForwardSlice(e.view, e.schema, fn);
}

void ImpactOp(const Embedded& e, NodeId fn) {
  Span span("analysis.impact_op");
  analysis::ImpactSet(e.view, e.schema, {fn},
                      {EdgeKind::kCalls, EdgeKind::kReadsMember,
                       EdgeKind::kWritesMember},
                      graph::Direction::kOut);
}

std::vector<std::string> SortedRows(const query::QueryResult& r,
                                    const query::Database& db) {
  std::vector<std::string> rows;
  for (const auto& row : r.rows) {
    std::string line;
    for (const auto& v : row) line += v.ToString(db) + "|";
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// What the client measured over a run: each class's latencies scaled to
// the reference host (see HostProbe), the same unscaled, and the row count
// of every HTTP answer.
struct Tally {
  std::vector<NamedSamples> classes = {{"Fig. 3 code search", {}},
                                       {"Fig. 5 debugging", {}},
                                       {"Fig. 6 closure (fast path)", {}},
                                       {"embedded backward/forward slice", {}},
                                       {"embedded impact set", {}}};
  std::vector<Samples> raw = std::vector<Samples>(5);
  std::map<std::string, int64_t> http_rows;
};

class Client {
 public:
  Client(const Instances& inst, const Embedded& e, uint16_t port,
         Tally* tally)
      : inst_(inst), e_(e), port_(port), tally_(tally) {}

  // Step `j` of the run; `scale` is the host-speed factor timed right
  // before it.
  void Step(size_t j, double scale, Outcome* out) {
    scale_ = scale;
    for (size_t k = 0; k < kSearchesPerStep; ++k) {
      const size_t n = (j * kSearchesPerStep + k) % inst_.search.size();
      Post(0, SearchQuery(inst_.search[n]), out);
    }
    j %= kSteps;
    Post(1, DebugQuery(inst_.debug[j % inst_.debug.size()]), out);
    const ClosureInstance& c = inst_.closure[j % inst_.closure.size()];
    Post(2, ClosureQuery(c), out);
    NodeId fn = UniqueNode(e_.db, c.function);
    Clock::time_point start = Clock::now();
    SliceOp(e_, fn);
    Record(3, MsSince(start));
    start = Clock::now();
    ImpactOp(e_, fn);
    Record(4, MsSince(start));
    out->attempted += 2;
  }

 private:
  void Record(int klass, double ms) {
    tally_->classes[klass].samples.Add(ms * scale_);
    tally_->raw[klass].Add(ms);
  }

  // A failed request counts as an infinitely slow sample, so it ranks
  // above every latency; a class percentile that falls on failures is
  // infinite, which fails the run.
  void Post(int klass, const std::string& text, Outcome* out) {
    Clock::time_point start = Clock::now();
    HttpReply reply;
    {
      Span span("server.post");
      reply = PostQuery(port_, text, 120000);
    }
    double ms = MsSince(start);
    ++out->attempted;
    if (reply.code != 200) {
      ++out->failed;
      Record(klass, INFINITY);
      return;
    }
    Record(klass, ms);
    int64_t rows = JsonField(reply.body, "rows");
    auto [it, fresh] = tally_->http_rows.emplace(text, rows);
    if (!fresh && it->second != rows) {
      out->Fail("HTTP row count changed between requests of " + text);
    }
  }

  const Instances& inst_;
  Embedded e_;
  uint16_t port_;
  Tally* tally_;
  double scale_ = 1;
};

// Runs the closed-loop client for `seconds` from step `step`, timing the
// host probe before each step; returns the step to go on from.
size_t Phase(const Instances& inst, const Embedded& e, uint16_t port,
             double seconds, size_t step, HostProbe* probe, Tally* tally,
             Outcome* out) {
  Client client(inst, e, port, tally);
  Clock::time_point start = Clock::now();
  for (; MsSince(start) < seconds * 1000; ++step) {
    const double scale = probe->Scale();
    Tracer::SetRequest(step + 1);
    client.Step(step, scale, out);
  }
  return step;
}

void CheckOracles(const Instances& inst, const Embedded& e,
                  const std::map<std::string, int64_t>& http_rows,
                  Outcome* out) {
  // Every HTTP 200 row count equals the in-process answer.
  for (const auto& [text, rows] : http_rows) {
    auto result = query::RunQuery(e.db, text);
    if (!result.ok() || static_cast<int64_t>(result->size()) != rows) {
      out->Fail("HTTP rows " + std::to_string(rows) +
                " differ from in-process RunQuery for " + text);
    }
  }
  graph::TypeId calls = e.schema.edge_type(EdgeKind::kCalls);
  graph::EdgeFilter filter = graph::EdgeFilter::Of({calls});
  // Fig. 5: the same rows with the CSR fast path on and off, and the same
  // (writer, line) pairs as analysis::FindSuspectWrites.
  for (const DebugInstance& d : inst.debug) {
    const std::string text = DebugQuery(d);
    if (http_rows.count(text) == 0) continue;
    query::ExecOptions off;
    off.use_csr_fast_path = false;
    auto fast = query::RunQuery(e.db, text);
    auto slow = query::RunQuery(e.db, text, off);
    if (!fast.ok() || !slow.ok() ||
        SortedRows(*fast, e.db) != SortedRows(*slow, e.db)) {
      out->Fail("Fig. 5 rows differ with the CSR fast path off: " + text);
      continue;
    }
    // The API and the query differ by definition in two places: the API
    // counts the bounding call itself as an early call site (the query's
    // `s` and `r` must be distinct relationships), and counts an early
    // callee as reaching itself (the query asks for a path of at least one
    // call). So every query row must be an API row, and every API row the
    // query lacks must be reached through one of those two cases.
    std::set<std::pair<NodeId, int64_t>> query_pairs, api_pairs;
    for (const auto& row : fast->rows) {
      query_pairs.insert({row[0].node, row[1].value.AsInt()});
    }
    DebugParts parts = ResolveDebug(e.view, e.schema, e.db, d);
    for (const auto& s : analysis::FindSuspectWrites(
             e.view, e.schema, parts.from, parts.to, parts.field, d.line)) {
      api_pairs.insert({s.writer, s.write_line});
    }
    bool agree = std::includes(api_pairs.begin(), api_pairs.end(),
                               query_pairs.begin(), query_pairs.end());
    if (agree && api_pairs.size() > query_pairs.size()) {
      std::set<NodeId> explained(parts.early_callees.begin(),
                                 parts.early_callees.end());
      for (NodeId n : graph::TransitiveClosure(e.view, parts.to, filter)) {
        explained.insert(n);
      }
      for (const auto& pair : api_pairs) {
        if (query_pairs.count(pair) == 0 && explained.count(pair.first) == 0) {
          agree = false;
        }
      }
    }
    if (!agree) {
      out->Fail("Fig. 5 rows (" + std::to_string(query_pairs.size()) +
                ") disagree with FindSuspectWrites (" +
                std::to_string(api_pairs.size()) + "): " + text);
    }
  }
  // Fig. 6: row count equals both closure implementations' size.
  const graph::CsrView& csr = e.db.csr->Get(e.view);
  graph::analytics::FrontierEngine engine;
  for (const ClosureInstance& c : inst.closure) {
    const std::string text = ClosureQuery(c);
    auto it = http_rows.find(text);
    if (it == http_rows.end()) continue;
    NodeId seed = UniqueNode(e.db, c.function);
    auto kernel = engine.Closure(csr, {seed}, filter);
    size_t walked = graph::TransitiveClosure(e.view, seed, filter).size();
    if (!kernel.ok() || static_cast<int64_t>(kernel->size()) != it->second ||
        walked != kernel->size()) {
      out->Fail("Fig. 6 rows " + std::to_string(it->second) +
                " differ from the closure kernels for " + c.function);
    }
  }
}

}  // namespace

void RunPaperQueries(const RunConfig& config, Outcome* out) {
  KernelInput input;
  if (!EnsureKernel(config.cache_dir, config.scale, config.seed, &input)) {
    out->Fail("cannot prepare the kernel input");
    return;
  }
  const Instances& inst = input.instances;
  if (inst.debug.empty() || inst.closure.empty() || inst.search.empty()) {
    out->Fail("no Fig. 3/5/6 instance satisfies the constraints");
    return;
  }

  // Set-up: snapshot open, server start and one warm-up step (every
  // class once), so lazy builds (CSR, reverse CSR, first-query costs) land
  // here. Each of the kSetups set-ups then serves an equal share of the
  // run: a set-up loads the graph into fresh memory, and on a shared host
  // how fast that memory is differs from one load to the next, so the run
  // spreads its samples over several loads.
  HostProbe probe;
  Samples setups, raw_setups;
  Tally untraced, traced;
  size_t step = 0;
  const double share = config.seconds / kSetups;
  std::unique_ptr<Serving> serving;
  std::shared_ptr<const server::Epoch> epoch;
  for (int i = 0; i < kSetups; ++i) {
    epoch.reset();
    serving.reset();
    malloc_trim(0);
    const double scale = probe.Scale(3);
    Clock::time_point start = Clock::now();
    serving = StartServing(input.snapshot_path, config.nproc, out);
    if (serving == nullptr) return;
    epoch = serving->epochs->Current();
    const Embedded e = EmbeddedOf(*epoch);
    Tally warm;
    Outcome warmup;
    Client(inst, e, serving->port(), &warm).Step(0, 1, &warmup);
    if (warmup.failed > 0) out->Fail("warm-up step failed");
    const double setup_s = MsSince(start) / 1000.0;
    setups.Add(setup_s * scale);
    raw_setups.Add(setup_s);
    if (config.trace) {
      step = Phase(inst, e, serving->port(), share / 2, step, &probe,
                   &untraced, out);
      Tracer::Global().Enable(true);
      step = Phase(inst, e, serving->port(), share / 2, step, &probe,
                   &traced, out);
      Tracer::Global().Enable(false);
    } else {
      step = Phase(inst, e, serving->port(), share, step, &probe, &untraced,
                   out);
    }
  }
  if (config.trace) {
    ReportTraceOverhead(GeoMeanP50(untraced.classes),
                        GeoMeanP50(traced.classes), out);
    return;
  }
  CheckOracles(inst, EmbeddedOf(*epoch), untraced.http_rows, out);
  // Fig. 3 is reported, not gated: its sub-millisecond HTTP latency right
  // after the heavy classes mostly measures thread wake-ups, and on a
  // shared virtual machine its median moved 1.5x between runs.
  // point-serve gates the same query under steady load.
  NoteLatency("Fig. 3 code search (not gated)", untraced.classes[0].samples);
  const std::vector<NamedSamples> gated(untraced.classes.begin() + 1,
                                        untraced.classes.end());
  ReportClasses(gated, setups, out);
  NoteUnscaled(std::vector<Samples>(untraced.raw.begin() + 1,
                                    untraced.raw.end()),
               raw_setups);
}

}  // namespace frappe::perfbench
