// Replay a structured query log (FRAPPE_QUERY_LOG JSONL) against a
// snapshot — the load-testing / regression half of the workload-telemetry
// loop: record production traffic once, then re-execute it against a new
// snapshot (or a new build) and diff row counts and latency.
//
//   replay_qlog <qlog.jsonl> <snapshot.db>
//   replay_qlog <qlog.jsonl> --generate [factor]
//
// For every record the tool re-runs the raw query text, checks the row
// count against the recorded one (for records that succeeded), and sums
// recorded vs. replayed latency. Results print as a table and land in
// BENCH_replay.json (git SHA + timestamp stamped, like every bench).
// Exit code: 0 when every row count matched, 1 otherwise, 2 on usage or
// load errors.
//
// --load turns the tool into an open-loop concurrent load generator
// against an in-process QueryServer: the query mix (from the qlog, or the
// built-in mix when the qlog argument is `--builtin`) is offered at a
// fixed arrival schedule per client — arrivals do NOT wait for
// completions, so overload shows up as queueing and shedding instead of
// silently throttling the offered rate. Reports p50/p95/p99 latency and
// shed rate at 1, 4, 16 and 64 clients (BENCH_server_load.json), then a
// writer-isolation lane: 16 clients read while a writer republishes
// identical-content epochs, and every response must match the
// single-epoch baseline row counts.
//
//   replay_qlog --builtin --generate 0.02 --load
//   replay_qlog qlog.jsonl snapshot.db --load --clients 1,8 --requests 50

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "common/string_util.h"
#include "extractor/synthetic.h"
#include "model/code_graph.h"
#include "obs/fingerprint.h"
#include "obs/http_listener.h"
#include "obs/query_log.h"
#include "query/session.h"
#include "server/epoch.h"
#include "server/query_server.h"

namespace {

using namespace frappe;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct ReplayTarget {
  std::unique_ptr<query::SnapshotSession> session;  // snapshot mode
  std::unique_ptr<model::CodeGraph> graph;          // --generate mode
  graph::NameIndex name_index;
  graph::LabelIndex label_index;
  model::Schema schema;
  query::Database db;

  Result<query::QueryResult> Run(std::string_view text,
                                 const query::ExecOptions& options) const {
    return session ? session->Run(text, options)
                   : query::RunQuery(db, text, options);
  }
};

// ---------------------------------------------------------------------------
// --load: open-loop concurrent load against an in-process QueryServer
// ---------------------------------------------------------------------------

struct LoadFlags {
  bool enabled = false;
  std::vector<int> client_counts = {1, 4, 16, 64};
  int requests_per_client = 25;
  int period_ms = 20;  // arrival period per client (open-loop schedule)
  size_t workers = 4;
};

struct LaneOutcome {
  std::vector<double> ok_ms;
  uint64_t ok = 0, shed = 0, timeouts = 0, dropped = 0, errors = 0;
  uint64_t row_mismatches = 0;
};

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size() - 1)));
  return samples[std::min(idx, samples.size() - 1)];
}

// The row count inside the response's "stats" object (the rows array can
// contain the substring too, so anchor on "stats").
int64_t ResponseRows(std::string_view body) {
  size_t stats = body.find("\"stats\"");
  if (stats == std::string_view::npos) return -1;
  size_t rows = body.find("\"rows\": ", stats);
  if (rows == std::string_view::npos) return -1;
  rows += std::strlen("\"rows\": ");
  size_t end = body.find_first_of(",}", rows);
  int64_t n = -1;
  if (end == std::string_view::npos ||
      !ParseInt64(body.substr(rows, end - rows), &n)) {
    return -1;
  }
  return n;
}

// One open-loop client: requests fire on the absolute schedule t0 + k*P.
// A slow response does not push later arrivals back — the client catches
// up by sending immediately, which is what keeps the offered rate honest
// under overload.
void ClientLoop(uint16_t port, const std::vector<std::string>& queries,
                const std::vector<int64_t>& baseline_rows,
                const LoadFlags& flags, size_t client_index,
                LaneOutcome* outcome, std::mutex* mu) {
  const auto t0 = Clock::now();
  for (int k = 0; k < flags.requests_per_client; ++k) {
    std::this_thread::sleep_until(
        t0 + std::chrono::milliseconds(static_cast<int64_t>(k) *
                                       flags.period_ms));
    size_t qi = (client_index + static_cast<size_t>(k)) % queries.size();
    auto start = Clock::now();
    std::string response = obs::HttpFetch(
        port, "POST", "/query?deadline_ms=10000", queries[qi], 15000);
    double ms = MsSince(start);
    int code = obs::HttpStatusOf(response);
    std::lock_guard<std::mutex> lock(*mu);
    if (code == 200) {
      ++outcome->ok;
      outcome->ok_ms.push_back(ms);
      int64_t rows = ResponseRows(obs::HttpBodyOf(response));
      if (baseline_rows[qi] >= 0 && rows != baseline_rows[qi]) {
        ++outcome->row_mismatches;
      }
    } else if (code == 429) {
      ++outcome->shed;
    } else if (code == 408) {
      ++outcome->timeouts;
    } else if (response.empty()) {
      ++outcome->dropped;
    } else {
      ++outcome->errors;
    }
  }
}

LaneOutcome RunLane(uint16_t port, const std::vector<std::string>& queries,
                    const std::vector<int64_t>& baseline_rows,
                    const LoadFlags& flags, int clients) {
  LaneOutcome outcome;
  std::mutex mu;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(port, queries, baseline_rows, flags,
                 static_cast<size_t>(c), &outcome, &mu);
    });
  }
  for (auto& t : threads) t.join();
  return outcome;
}

// A generated-name seed with outgoing calls, for a closure query that does
// real traversal work in the mix.
std::string ClosureSeed(const graph::GraphView& view,
                        const model::Schema& schema) {
  graph::TypeId calls = schema.edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = schema.key(model::PropKey::kShortName);
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    std::string_view name =
        view.GetNodeString(view.GetEdge(e).src, short_name);
    if (!name.empty()) return std::string(name);
  }
  return "";
}

int RunLoadMode(const std::vector<obs::QueryLogRecord>& records,
                const std::string& target_arg, double generate_factor,
                const LoadFlags& flags) {
  // Publish the first epoch.
  server::EpochManager epochs;
  std::shared_ptr<const server::Epoch> epoch;
  const bool generated = target_arg == "--generate";
  if (generated) {
    std::printf("generating synthetic kernel at scale %g...\n",
                generate_factor);
    auto graph = std::make_unique<model::CodeGraph>(
        model::CodeGraph::Validation::kOff);
    extractor::GraphScale scale;
    scale.factor = generate_factor;
    extractor::GenerateKernelGraph(scale, graph.get());
    auto published = epochs.Publish(std::move(graph), "generated kernel");
    if (!published.ok()) {
      std::fprintf(stderr, "publish: %s\n",
                   published.status().ToString().c_str());
      return 2;
    }
    epoch = std::move(*published);
  } else {
    auto published = epochs.PublishSnapshotFile(target_arg);
    if (!published.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", target_arg.c_str(),
                   published.status().ToString().c_str());
      return 2;
    }
    epoch = std::move(*published);
  }

  // The query mix: successful qlog records, or the built-in mix.
  std::vector<std::string> queries;
  for (const obs::QueryLogRecord& record : records) {
    if (record.status != "ok") continue;
    const std::string& text =
        record.raw.empty() ? record.query : record.raw;
    if (std::find(queries.begin(), queries.end(), text) == queries.end()) {
      queries.push_back(text);
    }
  }
  if (queries.empty()) {
    queries = {
        "MATCH (f:function) RETURN count(*)",
        "MATCH (s:struct) RETURN count(*)",
        "START n=node:node_auto_index('short_name: st_*') RETURN count(*)",
    };
    if (generated) {
      std::string seed =
          ClosureSeed(epoch->view(), epoch->code_graph->schema());
      if (!seed.empty()) {
        queries.push_back("START n=node:node_auto_index('short_name: " +
                          seed + "') MATCH n -[:calls*]-> m "
                          "RETURN distinct m");
      }
    }
  }
  std::printf("query mix: %zu distinct queries\n", queries.size());

  server::QueryServer::Options options;
  options.workers = flags.workers;
  options.admission.queue_capacity = 64;
  auto server = server::QueryServer::Start(options, &epochs);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 server.status().ToString().c_str());
    return 2;
  }
  uint16_t port = (*server)->port();
  std::printf("in-process query server on port %u (%zu workers)\n", port,
              flags.workers);

  // Baseline: every query once, single-client, recording row counts that
  // the concurrent lanes (and the writer-isolation lane) must reproduce.
  std::vector<int64_t> baseline_rows(queries.size(), -1);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::string response = obs::HttpFetch(
        port, "POST", "/query?deadline_ms=30000", queries[i], 35000);
    if (obs::HttpStatusOf(response) != 200) {
      std::fprintf(stderr, "baseline FAILED for: %s\n%s\n",
                   queries[i].c_str(), response.c_str());
      return 2;
    }
    baseline_rows[i] = ResponseRows(obs::HttpBodyOf(response));
    std::printf("  baseline %zu: %" PRId64 " rows\n", i, baseline_rows[i]);
  }

  bench::JsonReport report("server_load");
  bool failed = false;

  for (int clients : flags.client_counts) {
    LaneOutcome lane =
        RunLane(port, queries, baseline_rows, flags, clients);
    uint64_t total = lane.ok + lane.shed + lane.timeouts + lane.dropped +
                     lane.errors;
    double shed_rate =
        total > 0 ? static_cast<double>(lane.shed) /
                        static_cast<double>(total)
                  : 0.0;
    double p50 = Percentile(lane.ok_ms, 0.50);
    double p95 = Percentile(lane.ok_ms, 0.95);
    double p99 = Percentile(lane.ok_ms, 0.99);
    std::printf(
        "clients=%-3d ok=%" PRIu64 " shed=%" PRIu64 " timeout=%" PRIu64
        " dropped=%" PRIu64 " errors=%" PRIu64
        " | p50=%.2fms p95=%.2fms p99=%.2fms shed_rate=%.3f\n",
        clients, lane.ok, lane.shed, lane.timeouts, lane.dropped,
        lane.errors, p50, p95, p99, shed_rate);
    if (lane.row_mismatches > 0 || lane.errors > 0) failed = true;
    report.Add("clients=" + std::to_string(clients))
        .Samples(lane.ok_ms)
        .Extra("clients", clients)
        .Results(static_cast<int64_t>(lane.ok))
        .Extra("p50_ms", p50)
        .Extra("p95_ms", p95)
        .Extra("p99_ms", p99)
        .Extra("shed", static_cast<double>(lane.shed))
        .Extra("shed_rate", shed_rate)
        .Extra("timeouts", static_cast<double>(lane.timeouts))
        .Extra("dropped", static_cast<double>(lane.dropped))
        .Extra("errors", static_cast<double>(lane.errors))
        .Extra("row_mismatches", static_cast<double>(lane.row_mismatches))
        .Extra("offered_rps",
               static_cast<double>(clients) * 1000.0 /
                   static_cast<double>(flags.period_ms));
  }

  // Writer-isolation lane: 16 readers while a writer republishes epochs of
  // identical content — every 200 must still match the baseline row
  // counts, proving queries read their pinned epoch, never a half-built
  // one.
  {
    std::atomic<bool> stop_writer{false};
    uint64_t published = 0;
    std::thread writer([&] {
      extractor::GraphScale scale;
      scale.factor = generate_factor;
      while (!stop_writer.load(std::memory_order_relaxed)) {
        if (generated) {
          auto graph = std::make_unique<model::CodeGraph>(
              model::CodeGraph::Validation::kOff);
          extractor::GenerateKernelGraph(scale, graph.get());
          if (epochs.Publish(std::move(graph), "writer republish").ok()) {
            ++published;
          }
        } else {
          if (epochs.PublishSnapshotFile(target_arg).ok()) ++published;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    LaneOutcome lane = RunLane(port, queries, baseline_rows, flags, 16);
    stop_writer.store(true, std::memory_order_relaxed);
    writer.join();
    std::printf("writer-isolation: %" PRIu64 " epochs published, ok=%" PRIu64
                " row_mismatches=%" PRIu64 "\n",
                published, lane.ok, lane.row_mismatches);
    if (lane.row_mismatches > 0) failed = true;
    report.Add("writer_isolation")
        .Samples(lane.ok_ms)
        .Extra("clients", 16)
        .Results(static_cast<int64_t>(lane.ok))
        .Extra("epochs_published", static_cast<double>(published))
        .Extra("row_mismatches", static_cast<double>(lane.row_mismatches))
        .Extra("shed", static_cast<double>(lane.shed));
  }

  (*server)->Stop();
  report.Write();
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  LoadFlags load;
  std::vector<std::string> positional;
  double generate_factor = 0.05;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--load") {
      load.enabled = true;
    } else if (arg == "--clients" && i + 1 < argc) {
      load.client_counts.clear();
      std::string csv = argv[++i];
      for (size_t pos = 0; pos < csv.size();) {
        size_t comma = csv.find(',', pos);
        if (comma == std::string::npos) comma = csv.size();
        load.client_counts.push_back(
            std::atoi(csv.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else if (arg == "--requests" && i + 1 < argc) {
      load.requests_per_client = std::atoi(argv[++i]);
    } else if (arg == "--period-ms" && i + 1 < argc) {
      load.period_ms = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--workers" && i + 1 < argc) {
      load.workers = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg == "--generate") {
      positional.emplace_back(arg);
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        generate_factor = std::atof(argv[++i]);
      }
    } else {
      positional.emplace_back(arg);
    }
  }
  if (positional.size() < 2) {
    std::fprintf(
        stderr,
        "usage: %s <qlog.jsonl> <snapshot.db> [--load]\n"
        "       %s <qlog.jsonl|--builtin> --generate [factor] [--load]\n"
        "load flags: --clients 1,4,16,64 --requests N --period-ms N "
        "--workers N\n",
        argv[0], argv[0]);
    return 2;
  }

  std::vector<obs::QueryLogRecord> records;
  if (positional[0] != "--builtin") {
    auto read = obs::ReadQueryLogFile(positional[0]);
    if (!read.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", positional[0].c_str(),
                   read.status().ToString().c_str());
      return 2;
    }
    records = std::move(*read);
    std::printf("loaded %zu records from %s\n", records.size(),
                positional[0].c_str());
  } else if (!load.enabled) {
    std::fprintf(stderr, "--builtin only makes sense with --load\n");
    return 2;
  }

  if (load.enabled) {
    return RunLoadMode(records, positional[1], generate_factor, load);
  }

  ReplayTarget target;
  if (positional[1] == "--generate") {
    std::printf("generating synthetic kernel at scale %g...\n",
                generate_factor);
    target.graph = std::make_unique<model::CodeGraph>(
        model::CodeGraph::Validation::kOff);
    extractor::GraphScale scale;
    scale.factor = generate_factor;
    extractor::GenerateKernelGraph(scale, target.graph.get());
    target.name_index = target.graph->BuildNameIndex();
    target.label_index = graph::LabelIndex::Build(target.graph->view());
    target.schema = target.graph->schema();
    target.db = query::MakeFrappeDatabase(target.graph->view(), target.schema,
                                          &target.name_index,
                                          &target.label_index);
  } else {
    auto session = query::SnapshotSession::Open(positional[1]);
    if (!session.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", positional[1].c_str(),
                   session.status().ToString().c_str());
      return 2;
    }
    target.session = std::move(*session);
  }

  query::ExecOptions options;
  options.max_steps = 50'000'000;
  options.deadline_ms = 30'000;

  bench::JsonReport report("replay");
  std::vector<double> replayed_ms;
  uint64_t row_matches = 0, row_mismatches = 0;
  uint64_t replay_errors = 0, skipped = 0;
  double recorded_total_ms = 0, replayed_total_ms = 0;
  uint64_t replayed_rows = 0;

  for (const obs::QueryLogRecord& record : records) {
    const std::string& text = record.raw.empty() ? record.query : record.raw;
    if (record.status != "ok") {
      ++skipped;  // recorded failures have no row count to check
      continue;
    }
    auto start = Clock::now();
    auto result = target.Run(text, options);
    double ms = MsSince(start);
    replayed_ms.push_back(ms);
    recorded_total_ms += static_cast<double>(record.latency_us) / 1000.0;
    replayed_total_ms += ms;
    if (!result.ok()) {
      ++replay_errors;
      std::printf("  ERROR fp=%s: %s\n",
                  obs::FingerprintHex(record.fingerprint).c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    replayed_rows += result->rows.size();
    if (result->rows.size() == record.rows) {
      ++row_matches;
    } else {
      ++row_mismatches;
      std::printf("  MISMATCH fp=%s: recorded %" PRIu64
                  " rows, replayed %zu\n    %s\n",
                  obs::FingerprintHex(record.fingerprint).c_str(),
                  record.rows, result->rows.size(), record.query.c_str());
    }
  }

  std::printf("\nreplayed %zu records: %" PRIu64 " row-count matches, %" PRIu64
              " mismatches, %" PRIu64 " errors, %" PRIu64 " skipped\n",
              replayed_ms.size(), row_matches, row_mismatches, replay_errors,
              skipped);
  std::printf("latency: recorded %.1f ms total, replayed %.1f ms total"
              " (%.2fx)\n",
              recorded_total_ms, replayed_total_ms,
              recorded_total_ms > 0 ? replayed_total_ms / recorded_total_ms
                                    : 0.0);

  report.Add("replay")
      .Samples(replayed_ms)
      .Results(static_cast<int64_t>(replayed_rows))
      .Extra("records", static_cast<double>(records.size()))
      .Extra("row_matches", static_cast<double>(row_matches))
      .Extra("row_mismatches", static_cast<double>(row_mismatches))
      .Extra("replay_errors", static_cast<double>(replay_errors))
      .Extra("skipped", static_cast<double>(skipped))
      .Extra("recorded_total_ms", recorded_total_ms)
      .Extra("replayed_total_ms", replayed_total_ms);
  report.Write();

  return row_mismatches == 0 && replay_errors == 0 ? 0 : 1;
}
