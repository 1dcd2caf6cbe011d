// Micro-bench for the frappe::obs acceptance bar: the observability layer
// must cost < 5% of executor time when no sink is attached.
//
// Strategy (an uninstrumented build is not available at runtime to diff
// against, so the disabled-path cost is measured directly):
//   1. Time the disabled Span constructor/destructor in a tight loop (no
//      TraceScope installed) — one thread-local load + branch per span.
//   2. Time a representative query (the Figure 6 closure shape, which
//      crosses every instrumented layer: session -> executor -> fast path
//      -> analytics) with tracing disabled.
//   3. Run it once under a TraceScope + SpanCollector to count how many
//      spans it emits, then derive:
//      overhead_pct = spans_per_query * span_ns / query_ns * 100.
//   4. For reference, also measure the query with every run under its own
//      TraceScope + SpanCollector — what the query server pays per
//      request.
//   5. Workload-telemetry lane: run the Table 5-ish query mix (Figure 6
//      closure + index seek + label scan) with the structured query log
//      off, then enabled (ring push + background writer), and require the
//      enabled path to stay under the same 5% bar — Record() must never
//      block the query path.
//   6. Request-tracing lane: the same mix run bare vs under a per-request
//      TraceScope + SpanCollector (what the query server installs for
//      every admitted request), also held to the 5% bar.
//   7. Resource-accounting lane: the mix with the ResourceTracker kill
//      switch off vs each query run under an installed tracker (CPU +
//      allocation + budget accounting, what RunQuery does), same 5% bar.
//   8. Profiler-armed reference lane: the mix under a live SIGPROF
//      sampler at the default rate — informational (profiling is a
//      bounded operator action, not an always-on path).
//
// Emits BENCH_obs_overhead.json through the shared bench_json.h path (git
// SHA + timestamp stamped). Exits non-zero when the derived disabled-path
// overhead breaches 5%.
//
// Env knobs: FRAPPE_OBS_SCALE (0.1), FRAPPE_OBS_ITERS (30).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/kernel_common.h"
#include "model/code_graph.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "obs/query_registry.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "query/session.h"

namespace {

using namespace frappe;
using bench::Clock;
using bench::MsSince;

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  double v = std::atof(env);
  return v > 0 ? v : fallback;
}

}  // namespace

int main() {
  bench::PrintHeader("obs overhead: disabled-span cost vs executor time");
  bench::JsonReport report("obs_overhead");

  // --- 1. disabled Span cost ---
  constexpr uint64_t kSpanIters = 20'000'000;
  Clock::time_point span_start = Clock::now();
  for (uint64_t i = 0; i < kSpanIters; ++i) {
    FRAPPE_TRACE_SPAN("bench.noop");
  }
  double span_total_ms = MsSince(span_start);
  double span_ns = span_total_ms * 1e6 / static_cast<double>(kSpanIters);
  std::printf("disabled span: %.2f ns each (%" PRIu64 " iterations)\n",
              span_ns, kSpanIters);
  report.Add("span_disabled")
      .Sample(span_total_ms)
      .Extra("span_iterations", static_cast<double>(kSpanIters))
      .Extra("ns_per_span", span_ns);

  // --- graph + query setup ---
  double scale = EnvDouble("FRAPPE_OBS_SCALE", 0.1);
  auto graph = bench::GenerateKernel(scale);
  query::Session session(*graph);
  const graph::GraphView& view = graph->view();
  const model::Schema& schema = graph->schema();

  // Seed: a function with outgoing calls, so the Figure 6 closure shape
  // does real work across every instrumented layer.
  graph::TypeId calls = schema.edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = schema.key(model::PropKey::kShortName);
  std::string seed_name;
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    std::string_view name =
        view.GetNodeString(view.GetEdge(e).src, short_name);
    if (!name.empty()) {
      seed_name = std::string(name);
      break;
    }
  }
  if (seed_name.empty()) {
    std::fprintf(stderr, "FATAL: no seed function found\n");
    return 1;
  }
  std::string fig6 = "START n=node:node_auto_index('short_name: " +
                     seed_name + "') MATCH n -[:calls*]-> m RETURN distinct m";

  const int iters = static_cast<int>(EnvDouble("FRAPPE_OBS_ITERS", 30));
  auto run_query = [&]() -> size_t {
    auto result = session.Run(fig6);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return result->size();
  };
  size_t rows = run_query();  // warm caches (CSR build, allocator)

  // --- 2. query with tracing disabled (sinks off) ---
  std::vector<double> off_ms;
  for (int i = 0; i < iters; ++i) {
    Clock::time_point start = Clock::now();
    run_query();
    off_ms.push_back(MsSince(start));
  }
  double off_avg = 0;
  for (double s : off_ms) off_avg += s;
  off_avg /= static_cast<double>(off_ms.size());
  report.Add("query_sinks_off")
      .Samples(off_ms)
      .Results(static_cast<int64_t>(rows));

  // --- 3. spans per query + tracing-on latency, each run under its own
  // TraceScope + SpanCollector ---
  auto run_query_traced = [&]() -> size_t {
    obs::SpanCollector sink;
    obs::TraceScope scope(obs::GenerateTraceContext(), &sink);
    run_query();
    return sink.size();
  };
  size_t spans_per_query = run_query_traced();
  std::vector<double> on_ms;
  for (int i = 0; i < iters; ++i) {
    Clock::time_point start = Clock::now();
    run_query_traced();
    on_ms.push_back(MsSince(start));
  }
  double on_avg = 0;
  for (double s : on_ms) on_avg += s;
  on_avg /= static_cast<double>(on_ms.size());

  double derived_pct =
      100.0 * static_cast<double>(spans_per_query) * span_ns /
      (off_avg * 1e6);
  double tracing_on_pct = 100.0 * (on_avg - off_avg) / off_avg;
  bool pass = derived_pct < 5.0;

  std::printf("query (sinks off):  %.3f ms avg over %d iters, %zu rows\n",
              off_avg, iters, rows);
  std::printf("query (tracing on): %.3f ms avg (%+.2f%%), %zu spans/query\n",
              on_avg, tracing_on_pct, spans_per_query);
  std::printf("derived disabled-path overhead: %.4f%% (%zu spans x %.2f ns"
              " / %.3f ms) -> %s (< 5%% required)\n",
              derived_pct, spans_per_query, span_ns, off_avg,
              pass ? "PASS" : "FAIL");

  report.Add("query_tracing_on")
      .Samples(on_ms)
      .Extra("spans_per_query", static_cast<double>(spans_per_query))
      .Extra("tracing_on_overhead_pct", tracing_on_pct);

  // --- 4. query-log lane: the Table 5 mix with the structured log on ---
  // Three shapes spanning the executor's main paths: the Figure 6
  // transitive closure, an index seek, and a label scan with a property
  // filter.
  std::vector<std::string> mix = {
      fig6,
      "START n=node:node_auto_index('short_name: " + seed_name +
          "') RETURN n",
      "MATCH (f:function) WHERE f.short_name = '" + seed_name +
          "' RETURN f",
  };
  auto run_mix = [&]() {
    for (const std::string& q : mix) {
      auto result = session.Run(q);
      if (!result.ok()) {
        std::fprintf(stderr, "FATAL: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
    }
  };
  // Interleaved A/B sampling: each iteration takes one log-off and one
  // log-on sample back to back, so scheduler drift and thermal throttling
  // hit both lanes equally (on a 1-core CI box, two-block sampling swings
  // several percent between runs). Compared by median, which sheds the
  // scheduler-preemption outliers a mean would absorb.
  const std::string qlog_path = "bench_obs_overhead_qlog.jsonl";
  std::vector<double> mix_off_ms, mix_on_ms;
  run_mix();  // warm
  for (int i = 0; i < iters; ++i) {
    Clock::time_point start = Clock::now();
    run_mix();
    mix_off_ms.push_back(MsSince(start));

    obs::QueryLog::Options qlog_options;
    qlog_options.path = qlog_path;
    if (Status enabled = obs::QueryLog::Global().Enable(qlog_options);
        !enabled.ok()) {
      std::fprintf(stderr, "FATAL: query log: %s\n",
                   enabled.ToString().c_str());
      return 1;
    }
    run_mix();  // warm the log path
    start = Clock::now();
    run_mix();
    mix_on_ms.push_back(MsSince(start));
    obs::QueryLog::Global().Disable();
  }
  uint64_t qlog_written = obs::QueryLog::Global().written();
  uint64_t qlog_dropped = obs::QueryLog::Global().dropped();
  std::remove(qlog_path.c_str());
  std::remove((qlog_path + ".1").c_str());

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    size_t mid = v.size() / 2;
    return v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  };
  double mix_off_med = median(mix_off_ms);
  double mix_on_med = median(mix_on_ms);
  double qlog_pct = 100.0 * (mix_on_med - mix_off_med) / mix_off_med;
  bool qlog_pass = qlog_pct < 5.0;

  std::printf("query mix (log off): %.3f ms median over %d iters\n",
              mix_off_med, iters);
  std::printf("query mix (log on):  %.3f ms median (%+.2f%%), %" PRIu64
              " records written, %" PRIu64 " dropped -> %s (< 5%%"
              " required)\n",
              mix_on_med, qlog_pct, qlog_written, qlog_dropped,
              qlog_pass ? "PASS" : "FAIL");

  report.Add("mix_qlog_off").Samples(mix_off_ms);
  report.Add("mix_qlog_on")
      .Samples(mix_on_ms)
      .Extra("qlog_overhead_pct", qlog_pct)
      .Extra("qlog_written", static_cast<double>(qlog_written))
      .Extra("qlog_dropped", static_cast<double>(qlog_dropped));

  // --- 5. registry + cancel-token lane: the live-diagnostics control
  // plane on the same Table 5 mix. Enabled adds per-query registration
  // (mutex map insert/erase + entry alloc) and the per-1024-step progress
  // publication + cancel poll in the executor; disabled runs the same
  // queries with the registry's kill switch off. Same interleaved-median
  // protocol as the qlog lane.
  obs::QueryRegistry& registry = obs::QueryRegistry::Global();
  std::vector<double> reg_off_ms, reg_on_ms;
  for (int i = 0; i < iters; ++i) {
    registry.set_enabled(false);
    run_mix();  // warm this mode
    Clock::time_point start = Clock::now();
    run_mix();
    reg_off_ms.push_back(MsSince(start));

    registry.set_enabled(true);
    run_mix();
    start = Clock::now();
    run_mix();
    reg_on_ms.push_back(MsSince(start));
  }
  registry.set_enabled(true);  // leave the default state behind
  double reg_off_med = median(reg_off_ms);
  double reg_on_med = median(reg_on_ms);
  double registry_pct = 100.0 * (reg_on_med - reg_off_med) / reg_off_med;
  bool registry_pass = registry_pct < 5.0;

  std::printf("query mix (registry off): %.3f ms median over %d iters\n",
              reg_off_med, iters);
  std::printf("query mix (registry on):  %.3f ms median (%+.2f%%) -> %s"
              " (< 5%% required)\n",
              reg_on_med, registry_pct, registry_pass ? "PASS" : "FAIL");

  report.Add("mix_registry_off").Samples(reg_off_ms);
  report.Add("mix_registry_on")
      .Samples(reg_on_ms)
      .Extra("registry_overhead_pct", registry_pct);

  // --- 6. request-tracing lane: what the query server adds per request —
  // a TraceScope with a fresh per-request SpanCollector, so every session/
  // executor/kernel span is allocated an id, parented, and appended to the
  // sink. Compared against the same mix with no scope (spans disabled).
  // Same interleaved-median protocol as the other lanes.
  auto run_mix_traced = [&]() {
    for (const std::string& q : mix) {
      obs::TraceContext ctx = obs::GenerateTraceContext();
      auto sink = std::make_shared<obs::SpanCollector>();
      obs::TraceScope scope(ctx, sink.get(), /*queue_wait_us=*/0);
      auto result = session.Run(q);
      if (!result.ok()) {
        std::fprintf(stderr, "FATAL: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
    }
  };
  std::vector<double> trace_off_ms, trace_on_ms;
  run_mix_traced();  // warm
  for (int i = 0; i < iters; ++i) {
    Clock::time_point start = Clock::now();
    run_mix();
    trace_off_ms.push_back(MsSince(start));

    start = Clock::now();
    run_mix_traced();
    trace_on_ms.push_back(MsSince(start));
  }
  double trace_off_med = median(trace_off_ms);
  double trace_on_med = median(trace_on_ms);
  double tracing_pct = 100.0 * (trace_on_med - trace_off_med) / trace_off_med;
  bool tracing_pass = tracing_pct < 5.0;

  std::printf("query mix (no trace scope):  %.3f ms median over %d iters\n",
              trace_off_med, iters);
  std::printf("query mix (request traced):  %.3f ms median (%+.2f%%) -> %s"
              " (< 5%% required)\n",
              trace_on_med, tracing_pct, tracing_pass ? "PASS" : "FAIL");

  report.Add("mix_trace_off").Samples(trace_off_ms);
  report.Add("mix_trace_on")
      .Samples(trace_on_ms)
      .Extra("request_tracing_overhead_pct", tracing_pct);

  // --- 7. resource-accounting lane: the per-query ResourceTracker — a
  // thread-local install, the operator new/delete byte charges, the
  // CLOCK_THREAD_CPUTIME_ID reads at scope edges, and the per-flush budget
  // polls in the kernels. Disabled flips the global kill switch (the
  // allocation hook then costs one thread-local load + null check, the
  // shipped default when no query is in scope); enabled runs each query
  // under a tracker the way RunQuery installs one. Same interleaved-median
  // protocol, same 5% bar.
  auto run_mix_tracked = [&]() {
    for (const std::string& q : mix) {
      obs::ResourceTracker tracker;
      obs::ResourceScope scope(&tracker);
      auto result = session.Run(q);
      if (!result.ok()) {
        std::fprintf(stderr, "FATAL: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
    }
  };
  std::vector<double> acct_off_ms, acct_on_ms;
  run_mix_tracked();  // warm
  for (int i = 0; i < iters; ++i) {
    obs::ResourceTracker::SetEnabled(false);
    run_mix();  // warm this mode
    Clock::time_point start = Clock::now();
    run_mix();
    acct_off_ms.push_back(MsSince(start));

    obs::ResourceTracker::SetEnabled(true);
    run_mix_tracked();
    start = Clock::now();
    run_mix_tracked();
    acct_on_ms.push_back(MsSince(start));
  }
  obs::ResourceTracker::SetEnabled(true);  // leave the default behind
  double acct_off_med = median(acct_off_ms);
  double acct_on_med = median(acct_on_ms);
  double acct_pct = 100.0 * (acct_on_med - acct_off_med) / acct_off_med;
  bool acct_pass = acct_pct < 5.0;

  std::printf("query mix (accounting off): %.3f ms median over %d iters\n",
              acct_off_med, iters);
  std::printf("query mix (accounting on):  %.3f ms median (%+.2f%%) -> %s"
              " (< 5%% required)\n",
              acct_on_med, acct_pct, acct_pass ? "PASS" : "FAIL");

  report.Add("mix_accounting_off").Samples(acct_off_ms);
  report.Add("mix_accounting_on")
      .Samples(acct_on_ms)
      .Extra("accounting_overhead_pct", acct_pct);

  // --- 8. profiler-armed reference lane: the mix under a live SIGPROF
  // sampler at the default rate — what /debug/profilez costs while its
  // window is open. Informational, not gated: an armed profiler is an
  // explicit operator action with a bounded window, not an always-on
  // path (the always-on cost is the accounting lane above).
  double profiler_pct = 0.0;
  uint64_t profiler_samples = 0;
  if (Status armed = obs::Profiler::Global().Start(); armed.ok()) {
    std::vector<double> prof_ms;
    run_mix();  // warm with the timer armed
    for (int i = 0; i < iters; ++i) {
      Clock::time_point start = Clock::now();
      run_mix();
      prof_ms.push_back(MsSince(start));
    }
    profiler_samples = obs::Profiler::Global().sample_count();
    std::string folded = obs::Profiler::Global().Stop();
    (void)folded;
    double prof_med = median(prof_ms);
    profiler_pct = 100.0 * (prof_med - mix_off_med) / mix_off_med;
    std::printf("query mix (profiler armed): %.3f ms median (%+.2f%% vs"
                " qlog-off baseline), %" PRIu64 " samples [informational]\n",
                prof_med, profiler_pct, profiler_samples);
    report.Add("mix_profiler_armed")
        .Samples(prof_ms)
        .Extra("profiler_overhead_pct", profiler_pct)
        .Extra("profiler_samples", static_cast<double>(profiler_samples));
  } else {
    std::printf("profiler lane skipped: %s\n", armed.ToString().c_str());
  }

  bool all_pass =
      pass && qlog_pass && registry_pass && tracing_pass && acct_pass;
  report.Add("overhead")
      .Extra("derived_disabled_overhead_pct", derived_pct)
      .Extra("qlog_overhead_pct", qlog_pct)
      .Extra("registry_overhead_pct", registry_pct)
      .Extra("request_tracing_overhead_pct", tracing_pct)
      .Extra("accounting_overhead_pct", acct_pct)
      .Extra("pass", all_pass ? 1 : 0);
  report.Write();
  return all_pass ? 0 : 1;
}
