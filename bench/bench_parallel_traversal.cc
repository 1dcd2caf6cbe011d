// Frontier engine vs the sequential visited-set traversal on the
// kernel-scale synthetic graph. Two workloads:
//
//   calls closure     multi-source transitive closure over `calls` edges
//                     seeded from 50 high-out-degree functions (the Fig.6
//                     comprehension query writ large)
//   whole-graph sweep undirected reachability from node 0 — touches every
//                     connected node, the worst case for frontier merging
//
// Each workload runs on: the old sequential engine over the GraphStore,
// the old sequential engine over the CsrView, push-only and pull-only
// kernels, and the direction-optimizing (hybrid) kernel. Result sets must
// be identical everywhere; timings + speedups are printed and written to
// BENCH_parallel_traversal.json.
//
// The push-only run reproduces the pre-direction-optimizing kernel, so
// `speedup_vs_seed` (push_only_ms / hybrid_ms, same binary,
// same machine) tracks what the Beamer switch buys independent of host
// speed. Target (ISSUE 6): >= 2x on both workloads. Hybrid entries also
// record the per-level `directions` decisions and `direction_switches`.
//
// Env knobs: FRAPPE_SCALE, FRAPPE_BENCH_ITERS (5).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/kernel_common.h"
#include "graph/analytics.h"
#include "graph/csr_view.h"
#include "graph/traversal.h"

using namespace frappe;

namespace {

struct Timed {
  double best_ms = 0;
  std::vector<double> samples_ms;
  size_t result_count = 0;
};

template <typename Fn>
Timed Measure(int iters, Fn&& fn) {
  Timed t;
  for (int i = 0; i < iters; ++i) {
    auto start = bench::Clock::now();
    t.result_count = fn();
    t.samples_ms.push_back(bench::MsSince(start));
  }
  t.best_ms = *std::min_element(t.samples_ms.begin(), t.samples_ms.end());
  return t;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Frontier traversal vs sequential visited-set engine");
  double factor = bench::ScaleFromEnv();
  int iters = 5;
  if (const char* env = std::getenv("FRAPPE_BENCH_ITERS")) {
    iters = std::max(1, std::atoi(env));
  }
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("scale %g | %d iterations (best-of reported) | %u hardware"
              " threads\n\n", factor, iters, cores);

  auto graph = bench::GenerateKernel(factor);
  const graph::GraphStore& store = graph->store();
  graph::TypeId calls = graph->type_id(model::EdgeKind::kCalls);
  graph::CsrView csr = graph::CsrView::Build(store);

  // 50 high-out-degree function seeds, as in the CSR ablation.
  std::vector<graph::NodeId> seeds;
  store.ForEachNode([&](graph::NodeId id) {
    if (seeds.size() >= 50 ||
        graph->KindOf(id) != model::NodeKind::kFunction) {
      return;
    }
    size_t out_calls = 0;
    store.ForEachEdge(id, graph::Direction::kOut,
                      [&](graph::EdgeId e, graph::NodeId) {
                        if (store.GetEdge(e).type == calls) ++out_calls;
                        return true;
                      });
    if (out_calls >= 5) seeds.push_back(id);
  });

  bench::JsonReport json("parallel_traversal");

  struct Workload {
    const char* name;
    graph::EdgeFilter filter;
    std::vector<graph::NodeId> seeds;
    bool closure;  // closure (>=1 edge) vs reachable (>=0 edges)
  };
  std::vector<Workload> workloads = {
      {"calls closure", graph::EdgeFilter::Of({calls}), seeds, true},
      {"whole-graph sweep",
       graph::EdgeFilter::Any(graph::Direction::kBoth),
       {0},
       false},
  };

  bool all_identical = true;
  // Worst push-only / sequential-CSR time ratio across workloads: > 1.10
  // would mean the frontier engine regressed the sequential engine.
  double t1_ratio_worst = 0;

  for (const Workload& w : workloads) {
    std::printf("%s (%zu seeds)\n", w.name, w.seeds.size());
    std::printf("  %-34s %10s %10s %9s\n", "engine", "best ms", "nodes",
                "speedup");

    // Old sequential engine. For the reachable workload the sequential
    // equivalent is closure + live seeds (a node reaches itself over 0
    // edges), matching analytics::Reachable's contract.
    auto sequential = [&](const graph::GraphView& view) {
      std::vector<graph::NodeId> out =
          graph::TransitiveClosure(view, w.seeds, w.filter);
      if (!w.closure) {
        for (graph::NodeId seed : w.seeds) {
          if (view.NodeExists(seed)) out.push_back(seed);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
      }
      return out;
    };

    std::vector<graph::NodeId> expected = sequential(store);
    Timed store_t = Measure(iters, [&] { return sequential(store).size(); });
    Timed csr_seq_t = Measure(iters, [&] { return sequential(csr).size(); });
    std::printf("  %-34s %10.1f %10zu %9s\n", "sequential (GraphStore)",
                store_t.best_ms, store_t.result_count, "");
    std::printf("  %-34s %10.1f %10zu %9s\n", "sequential (CsrView)",
                csr_seq_t.best_ms, csr_seq_t.result_count, "");
    std::string prefix = std::string(w.name) + " / ";
    json.Add(prefix + "sequential store")
        .Samples(store_t.samples_ms)
        .Results(static_cast<int64_t>(store_t.result_count));
    json.Add(prefix + "sequential csr")
        .Samples(csr_seq_t.samples_ms)
        .Results(static_cast<int64_t>(csr_seq_t.result_count));

    // Runs one kernel configuration and reports / records it. Returns
    // best-of ms so callers can form ratios.
    graph::analytics::Metrics metrics;
    auto run_kernel = [&](const char* label, const std::string& json_label,
                          graph::analytics::DirectionMode mode,
                          double baseline_ms, const char* baseline_key) {
      std::vector<graph::NodeId> last;
      graph::analytics::Options options;
      options.mode = mode;
      Timed t = Measure(iters, [&] {
        auto result = w.closure
                          ? graph::analytics::ParallelClosure(
                                csr, w.seeds, w.filter, options, &metrics)
                          : graph::analytics::ParallelReachable(
                                csr, w.seeds, w.filter, options, &metrics);
        last = result.ok() ? std::move(*result)
                           : std::vector<graph::NodeId>{};
        return last.size();
      });
      bool identical = last == expected;
      all_identical = all_identical && identical;
      // The push-only lane *is* the seed kernel: its ratio is 1 by
      // definition.
      double speedup =
          baseline_ms > 0 ? baseline_ms / std::max(t.best_ms, 0.001) : 1.0;
      if (baseline_ms > 0) {
        std::printf("  %-34s %10.1f %10zu %8.2fx%s\n", label, t.best_ms,
                    t.result_count, speedup,
                    identical ? "" : "   RESULT MISMATCH!");
      } else {
        std::printf("  %-34s %10.1f %10zu %9s%s\n", label, t.best_ms,
                    t.result_count, "baseline",
                    identical ? "" : "   RESULT MISMATCH!");
      }
      std::string directions;
      for (size_t i = 0; i < metrics.level_pull.size(); ++i) {
        if (i > 0) directions += ",";
        directions += metrics.level_pull[i] != 0 ? "pull" : "push";
        directions += metrics.level_bitmap[i] != 0 ? ":bitmap" : ":array";
      }
      json.Add(json_label)
          .Samples(t.samples_ms)
          .Results(static_cast<int64_t>(t.result_count))
          .Extra(baseline_key, speedup)
          .Extra("direction_switches",
                 static_cast<double>(metrics.direction_switches))
          .ExtraStr("directions", directions)
          .Note(identical ? "" : "RESULT MISMATCH");
      return t.best_ms;
    };

    // Direction ablation. push-only == the seed kernel, the baseline
    // `speedup_vs_seed` is measured against.
    double push_only_ms =
        run_kernel("push-only", prefix + "push-only",
                   graph::analytics::DirectionMode::kPushOnly, 0,
                   "speedup_vs_seed");
    t1_ratio_worst = std::max(
        t1_ratio_worst, push_only_ms / std::max(csr_seq_t.best_ms, 0.001));
    run_kernel("pull-only", prefix + "pull-only",
               graph::analytics::DirectionMode::kPullOnly, push_only_ms,
               "speedup_vs_seed");
    // Hybrid (direction-optimizing) kernel — the production path.
    run_kernel("hybrid frontier", prefix + "parallel",
               graph::analytics::DirectionMode::kAuto, push_only_ms,
               "speedup_vs_seed");
    std::printf("\n");
  }

  json.Add("meta")
      .Extra("cores", static_cast<double>(cores))
      .Extra("scale", factor)
      .Extra("all_results_identical", all_identical ? 1 : 0);

  std::printf("result agreement across engines and direction modes: %s\n",
              all_identical ? "identical" : "MISMATCH!");
  std::printf("push-only vs old sequential CSR engine: %.2fx time"
              " ratio (%s; target: <= 1.10x)\n", t1_ratio_worst,
              t1_ratio_worst <= 1.10 ? "no regression" : "REGRESSION");
  std::printf("(speedup column: vs the push-only seed kernel; target"
              " >= 2x)\n");
  return all_identical ? 0 : 1;
}
