// Interactive FQL shell: open a Frappé snapshot (or generate a synthetic
// kernel) and query it from stdin.
//
//   fql_shell <snapshot.db>        open an existing database
//   fql_shell --generate [factor]  generate a synthetic kernel (default 0.05)
//
// Meta commands: \stats  \hubs  \schema  \top  \queries  \cancel <id>
//                \explain <query>  \save <path>  \quit
//
// Workload telemetry (opt-in via environment):
//   FRAPPE_STATS_PORT=9090   serve /metrics, /stats, /healthz plus the
//                            /debug/* control plane (queryz, cancel,
//                            tracez, storagez, logz) on localhost
//   FRAPPE_QUERY_LOG=q.jsonl log every query as JSONL (replayable with
//                            replay_qlog)
//   FRAPPE_SLOW_QUERY_MS=50  log queries at/over the threshold with plans
//   FRAPPE_LOG_LEVEL=debug   structured-log threshold (debug|info|warn|
//                            error|off; default info)
//   FRAPPE_STUCK_QUERY_MS=60000  warn (component=watchdog) when a query
//                            runs past the threshold

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "extractor/synthetic.h"
#include "graph/csr_view.h"
#include "graph/snapshot_manager.h"
#include "graph/stats.h"
#include "model/code_graph.h"
#include "obs/fingerprint.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "obs/query_registry.h"
#include "obs/stats_server.h"
#include "query/parser.h"
#include "query/session.h"

namespace {

using namespace frappe;

struct Shell {
  std::unique_ptr<query::SnapshotSession> session;  // snapshot mode
  std::unique_ptr<model::CodeGraph> owned_graph;    // --generate mode
  graph::NameIndex name_index;
  graph::LabelIndex label_index;
  model::Schema schema;
  query::Database db;

  const graph::GraphView& view() const {
    return owned_graph ? owned_graph->view() : session->view();
  }
  const query::Database& database() const {
    return owned_graph ? db : session->database();
  }
  const graph::NameIndex& index() const {
    return owned_graph ? name_index : session->name_index();
  }
  const model::Schema& schema_ref() const {
    return owned_graph ? schema : session->schema();
  }
  const graph::GraphStore& store() const {
    return owned_graph ? owned_graph->store() : session->store();
  }
};

bool OpenSnapshot(const std::string& path, Shell* shell) {
  auto session = query::SnapshotSession::Open(path);
  if (!session.ok()) {
    // Corruption statuses carry the failing section and byte offset.
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                 session.status().ToString().c_str());
    return false;
  }
  shell->session = std::move(*session);
  for (const std::string& warning : shell->session->warnings()) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }
  if (shell->session->generation() > 0) {
    std::fprintf(stderr,
                 "warning: %s was unusable; loaded fallback generation %d"
                 " (%s)\n",
                 path.c_str(), shell->session->generation(),
                 shell->session->loaded_path().c_str());
  }
  return true;
}

void Generate(double factor, Shell* shell) {
  shell->owned_graph = std::make_unique<model::CodeGraph>(
      model::CodeGraph::Validation::kOff);
  extractor::GraphScale scale;
  scale.factor = factor;
  extractor::GenerateKernelGraph(scale, shell->owned_graph.get());
  shell->name_index = shell->owned_graph->BuildNameIndex();
  shell->label_index = graph::LabelIndex::Build(shell->owned_graph->view());
  shell->schema = shell->owned_graph->schema();
  shell->db = query::MakeFrappeDatabase(shell->owned_graph->view(),
                                        shell->schema, &shell->name_index,
                                        &shell->label_index);
}

void PrintStats(const Shell& shell) {
  auto metrics = graph::ComputeMetrics(shell.view());
  std::printf("nodes %llu, edges %llu, ratio 1:%.2f, density %.3e\n",
              static_cast<unsigned long long>(metrics.node_count),
              static_cast<unsigned long long>(metrics.edge_count),
              metrics.edge_node_ratio, metrics.density);
}

void PrintHubs(const Shell& shell) {
  for (const auto& hub : graph::TopDegreeNodes(
           shell.view(), 10,
           shell.schema_ref().key(model::PropKey::kShortName))) {
    std::printf("  %-30s %-14s degree %llu\n", hub.short_name.c_str(),
                hub.type_name.c_str(),
                static_cast<unsigned long long>(hub.degree));
  }
}

// \top: the per-fingerprint workload table, ordered by where the time
// went — the offline twin of the stats server's /stats endpoint.
void PrintTopQueries() {
  auto top = obs::QueryStats::Global().Top(10);
  if (top.empty()) {
    std::printf("no queries recorded yet\n");
    return;
  }
  std::printf("%-16s %8s %6s %10s %10s %10s %8s %8s %8s %8s %9s %9s"
              "  query\n",
              "fingerprint", "calls", "errors", "total_ms", "avg_ms",
              "p99_ms", "parse_us", "plan_us", "exec_us", "cpu_us",
              "alloc_kb", "peak_kb");
  for (const auto& s : top) {
    double avg_ms =
        s.calls > 0
            ? static_cast<double>(s.total_latency_us) / s.calls / 1000.0
            : 0.0;
    // Per-call latency attribution averages: the same timeline the server
    // returns per response, aggregated per fingerprint. cpu_us/alloc_kb
    // are per-call averages of the resource accounting; peak_kb is the
    // worst single call.
    double calls = s.calls > 0 ? static_cast<double>(s.calls) : 1.0;
    std::printf(
        "%-16s %8llu %6llu %10.1f %10.2f %10.2f %8.0f %8.0f %8.0f %8.0f"
        " %9.1f %9.1f  %s\n",
        obs::FingerprintHex(s.fingerprint).c_str(),
        static_cast<unsigned long long>(s.calls),
        static_cast<unsigned long long>(s.errors),
        static_cast<double>(s.total_latency_us) / 1000.0, avg_ms,
        s.latency.Quantile(0.99) / 1000.0,
        static_cast<double>(s.parse_us_total) / calls,
        static_cast<double>(s.plan_us_total) / calls,
        static_cast<double>(s.exec_us_total) / calls,
        static_cast<double>(s.cpu_us_total) / calls,
        static_cast<double>(s.alloc_bytes_total) / calls / 1024.0,
        static_cast<double>(s.peak_bytes_max) / 1024.0,
        s.normalized.c_str());
  }
}

// \queries: the in-flight table /debug/queryz serves. With the shell's
// synchronous prompt this usually only shows work started elsewhere (the
// stats server's /debug/cancel can kill entries from here too).
void PrintActiveQueries() {
  auto active = obs::QueryRegistry::Global().SnapshotAll();
  if (active.empty()) {
    std::printf("no queries in flight\n");
    return;
  }
  std::printf("%6s %-16s %10s %12s %10s %-18s query\n", "id", "fingerprint",
              "elapsed_ms", "steps", "rows", "operator");
  for (const auto& q : active) {
    std::printf("%6llu %-16s %10.1f %12llu %10llu %-18s %s%s\n",
                static_cast<unsigned long long>(q.id),
                obs::FingerprintHex(q.fingerprint).c_str(), q.elapsed_ms,
                static_cast<unsigned long long>(q.steps),
                static_cast<unsigned long long>(q.rows),
                q.op != nullptr ? q.op : "-", q.normalized.c_str(),
                q.cancel_requested ? "  [cancelling]" : "");
  }
}

void CancelQuery(const std::string& arg) {
  char* end = nullptr;
  unsigned long long id = std::strtoull(arg.c_str(), &end, 10);
  if (end == arg.c_str() || id == 0) {
    std::printf("usage: \\cancel <id>   (ids from \\queries)\n");
    return;
  }
  if (obs::QueryRegistry::Global().Cancel(id)) {
    std::printf("cancel requested for query %llu\n", id);
  } else {
    std::printf("no in-flight query with id %llu\n", id);
  }
}

// PROFILE CPU <query>: arm the sampling profiler around one execution and
// print the hottest folded stacks (the shell-side sibling of
// /debug/profilez — same SIGPROF sampler, same folded format).
void RunProfiledQuery(const Shell& shell, const std::string& fql) {
  Status started = obs::Profiler::Global().Start();
  if (!started.ok()) {
    std::printf("profiler unavailable: %s\n", started.ToString().c_str());
    return;
  }
  query::ExecOptions options;
  options.max_steps = 50'000'000;
  options.deadline_ms = 30'000;
  auto result = query::RunQuery(shell.database(), fql, options);
  std::string folded = obs::Profiler::Global().Stop();
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
  } else {
    std::printf("%zu row(s); cpu %llu us, alloc %llu bytes, peak %llu"
                " bytes\n",
                result->rows.size(),
                static_cast<unsigned long long>(result->stats.cpu_us),
                static_cast<unsigned long long>(result->stats.alloc_bytes),
                static_cast<unsigned long long>(result->stats.peak_bytes));
  }
  // Folded lines are "frame;frame;... count"; show the hottest first.
  std::vector<std::pair<unsigned long long, std::string>> stacks;
  size_t pos = 0;
  while (pos < folded.size()) {
    size_t eol = folded.find('\n', pos);
    if (eol == std::string::npos) eol = folded.size();
    std::string lineStr = folded.substr(pos, eol - pos);
    pos = eol + 1;
    size_t space = lineStr.rfind(' ');
    if (space == std::string::npos) continue;
    unsigned long long count =
        std::strtoull(lineStr.c_str() + space + 1, nullptr, 10);
    stacks.emplace_back(count, lineStr.substr(0, space));
  }
  if (stacks.empty()) {
    std::printf("no profile samples (query too fast for the %d Hz"
                " sampler?)\n",
                obs::Profiler::Options().hz);
    return;
  }
  std::sort(stacks.begin(), stacks.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  unsigned long long total = 0;
  for (const auto& [count, stack] : stacks) total += count;
  std::printf("%llu samples across %zu stacks; top stacks:\n", total,
              stacks.size());
  size_t shown = 0;
  for (const auto& [count, stack] : stacks) {
    if (++shown > 10) break;
    std::printf("%6llu (%4.1f%%)  %s\n", count,
                100.0 * static_cast<double>(count) /
                    static_cast<double>(total),
                stack.c_str());
  }
}

void PrintSchema() {
  std::printf("node types:");
  for (size_t i = 0; i < static_cast<size_t>(model::NodeKind::kCount); ++i) {
    std::printf(" %s",
                std::string(model::NodeKindName(
                                static_cast<model::NodeKind>(i)))
                    .c_str());
  }
  std::printf("\nedge types:");
  for (size_t i = 0; i < static_cast<size_t>(model::EdgeKind::kCount); ++i) {
    std::printf(" %s",
                std::string(model::EdgeKindName(
                                static_cast<model::EdgeKind>(i)))
                    .c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  if (argc >= 2 && std::strcmp(argv[1], "--generate") == 0) {
    double factor = argc >= 3 ? std::atof(argv[2]) : 0.05;
    std::printf("generating synthetic kernel at scale %g...\n", factor);
    Generate(factor, &shell);
  } else if (argc >= 2) {
    if (!OpenSnapshot(argv[1], &shell)) return 1;
  } else {
    std::printf("no snapshot given; generating a small kernel (0.02)...\n");
    Generate(0.02, &shell);
  }
  PrintStats(shell);

  // Live diagnostics: the /debug/storagez + frappe_storage_bytes provider
  // (re-queried on every scrape) and the stuck-query watchdog — before the
  // stats server so the endpoints are never up without their data sources.
  {
    const graph::GraphStore* store = &shell.store();
    std::shared_ptr<graph::CsrCache> csr = shell.database().csr;
    obs::StatsServer::SetStorageStatsProvider(
        [store, csr]() -> obs::StatsServer::StorageSections {
          graph::GraphStore::MemoryBreakdown m = store->EstimateMemory();
          obs::StatsServer::StorageSections sections = {
              {"nodes", m.nodes},
              {"relationships", m.relationships},
              {"properties", m.properties}};
          if (csr != nullptr) {
            // Packed-adjacency bytes: the transpose section stays 0 until
            // the first pull-direction traversal lazily builds it, the
            // condensation until the first unbounded reachability query.
            graph::CsrCache::Stats cs = csr->GetStats();
            sections.emplace_back("csr_forward", cs.forward_bytes);
            sections.emplace_back("csr_reverse", cs.reverse_bytes);
            sections.emplace_back("csr_condensation", cs.condensation_bytes);
          }
          return sections;
        });
  }
  obs::QueryRegistry::Global().MaybeStartWatchdogFromEnv();

  // Workload telemetry, both opt-in: the embedded stats server
  // (FRAPPE_STATS_PORT) and the structured query log (FRAPPE_QUERY_LOG).
  std::unique_ptr<obs::StatsServer> stats_server =
      obs::StatsServer::MaybeStartFromEnv();
  if (stats_server != nullptr) {
    std::printf("stats server on http://127.0.0.1:%u  (/metrics /stats"
                " /healthz /debug/queryz /debug/cancel /debug/tracez"
                " /debug/storagez /debug/logz /debug/memz"
                " /debug/profilez)\n",
                stats_server->port());
  }
  if (auto enabled = obs::QueryLog::Global().EnableFromEnv();
      enabled.ok() && *enabled) {
    std::printf("query log -> %s\n", std::getenv("FRAPPE_QUERY_LOG"));
  } else if (!enabled.ok()) {
    std::fprintf(stderr, "query log disabled: %s\n",
                 enabled.status().ToString().c_str());
  }

  std::printf("type FQL queries (prefix EXPLAIN or PROFILE for plans,"
              " PROFILE CPU for a sampled flame profile), or"
              " \\stats \\hubs \\schema \\top \\queries \\cancel <id>"
              " \\explain <query> \\save <path> \\quit\n"
              "  \\queries      list in-flight queries (id, elapsed,"
              " progress) — the \\cancel ids\n"
              "  \\cancel <id>  request cooperative cancellation of an"
              " in-flight query\n");

  std::string line;
  while (true) {
    std::printf("fql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\stats") {
      PrintStats(shell);
      continue;
    }
    if (line == "\\hubs") {
      PrintHubs(shell);
      continue;
    }
    if (line == "\\schema") {
      PrintSchema();
      continue;
    }
    if (line == "\\top") {
      PrintTopQueries();
      continue;
    }
    if (line == "\\queries") {
      PrintActiveQueries();
      continue;
    }
    if (line.rfind("\\cancel ", 0) == 0) {
      CancelQuery(line.substr(8));
      continue;
    }
    if (line.rfind("PROFILE CPU ", 0) == 0) {
      // Distinct from plain PROFILE (per-operator plan annotation): this
      // arms the SIGPROF sampler around the execution and prints where
      // the CPU time went, as folded stacks.
      RunProfiledQuery(shell, line.substr(12));
      continue;
    }
    if (line.rfind("\\save ", 0) == 0) {
      std::string path = line.substr(6);
      // Crash-safe save with rotated generations (<path>.1, <path>.2).
      graph::SnapshotManager manager(path);
      auto sizes = manager.Save(shell.view(), &shell.index());
      if (sizes.ok()) {
        std::printf("wrote %s (%.1f MB)\n", path.c_str(),
                    sizes->total() / 1048576.0);
      } else {
        std::fprintf(stderr, "save failed: %s\n",
                     sizes.status().ToString().c_str());
      }
      continue;
    }

    if (line.rfind("\\explain ", 0) == 0) line = "EXPLAIN " + line.substr(9);

    // RunQuery is the telemetry-instrumented entry point: EXPLAIN renders
    // the plan without executing, PROFILE annotates it, and every
    // execution lands in the fingerprint stats table / query log / slow
    // log — exactly what an embedder gets.
    query::ExecOptions options;
    options.max_steps = 50'000'000;
    options.deadline_ms = 30'000;
    auto start = std::chrono::steady_clock::now();
    auto result = query::RunQuery(shell.database(), line, options);
    double ms = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count() /
                1000.0;
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    if (!result->plan.empty()) std::printf("%s", result->plan.c_str());
    // EXPLAIN produces only a plan — no row table to print.
    if (result->columns.empty() && result->rows.empty()) continue;
    // Header.
    for (const std::string& column : result->columns) {
      std::printf("%-28s", column.c_str());
    }
    std::printf("\n");
    size_t shown = 0;
    for (const auto& row : result->rows) {
      if (++shown > 25) {
        std::printf("... (%zu more rows)\n", result->rows.size() - 25);
        break;
      }
      for (const auto& value : row) {
        std::printf("%-28s", value.ToString(shell.database()).c_str());
      }
      std::printf("\n");
    }
    std::printf("%zu row(s) in %.1f ms (%llu engine steps)\n",
                result->rows.size(), ms,
                static_cast<unsigned long long>(result->steps));
  }
  // Drain + close the query log so the last records hit disk; stop the
  // watchdog and drop the storage provider before `shell` goes away.
  obs::QueryRegistry::Global().StopWatchdog();
  obs::StatsServer::SetStorageStatsProvider(nullptr);
  obs::QueryLog::Global().Disable();
  return 0;
}
