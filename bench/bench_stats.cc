// Micro-bench for the ANALYZE stats catalog: what a full BuildStatsCatalog
// pass over the generated kernel graph costs (the command is an explicit
// operator action, so this is a budget number, not a bar) and how many
// bytes the resulting catalog adds to a snapshot — cross-checked against
// the /debug/storagez section breakdown the shell registers.
//
// Emits BENCH_stats.json through the shared bench_json.h path (git SHA +
// timestamp stamped). Exits non-zero when ANALYZE fails, leaves no
// catalog, or the catalog is missing from /debug/storagez.
//
// Env knobs: FRAPPE_OBS_SCALE (0.1), FRAPPE_OBS_ITERS (30).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/kernel_common.h"
#include "graph/stats_catalog.h"
#include "model/code_graph.h"
#include "obs/stats_server.h"
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
  bench::PrintHeader("stats: ANALYZE cost, catalog size");
  bench::JsonReport report("stats");

  double scale = EnvDouble("FRAPPE_OBS_SCALE", 0.1);
  const int iters = static_cast<int>(EnvDouble("FRAPPE_OBS_ITERS", 30));
  auto graph = bench::GenerateKernel(scale);
  query::Session session(*graph);

  auto run_analyze = [&]() {
    auto result = session.Run("ANALYZE");
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: ANALYZE: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  };
  run_analyze();  // warm (interns, allocator)
  std::vector<double> analyze_ms;
  for (int i = 0; i < iters; ++i) {
    Clock::time_point start = Clock::now();
    run_analyze();
    analyze_ms.push_back(MsSince(start));
  }
  double analyze_avg = 0;
  for (double s : analyze_ms) analyze_avg += s;
  analyze_avg /= static_cast<double>(analyze_ms.size());

  std::shared_ptr<const graph::StatsCatalog> catalog =
      session.database().stats->Get();
  if (catalog == nullptr) {
    std::fprintf(stderr, "FATAL: ANALYZE left no catalog behind\n");
    return 1;
  }
  uint64_t catalog_bytes = catalog->ByteSize();
  double bytes_per_node =
      static_cast<double>(catalog_bytes) /
      static_cast<double>(catalog->node_count ? catalog->node_count : 1);

  // The shell's /debug/storagez wiring: the catalog must show up as its
  // own section so operators can see what ANALYZE added to the snapshot.
  obs::StatsServer::SetStorageStatsProvider(
      [&]() -> obs::StatsServer::StorageSections {
        return {{"stats_catalog", catalog_bytes}};
      });
  std::string storagez = obs::StatsServer::StorageJson();
  obs::StatsServer::SetStorageStatsProvider(nullptr);
  if (storagez.find("stats_catalog") == std::string::npos) {
    std::fprintf(stderr, "FATAL: /debug/storagez lost the stats_catalog"
                 " section:\n%s\n", storagez.c_str());
    return 1;
  }

  std::printf("ANALYZE: %.3f ms avg over %d iters (%" PRIu64 " nodes, %"
              PRIu64 " edges)\n",
              analyze_avg, iters, catalog->node_count, catalog->edge_count);
  std::printf("catalog: %" PRIu64 " bytes (%.2f bytes/node, %zu edge types,"
              " %zu hubs) — in /debug/storagez as stats_catalog\n",
              catalog_bytes, bytes_per_node, catalog->edge_types.size(),
              catalog->hubs.size());

  report.Add("analyze")
      .Samples(analyze_ms)
      .Results(static_cast<int64_t>(catalog->node_count))
      .Extra("edge_count", static_cast<double>(catalog->edge_count));
  report.Add("catalog_size")
      .Extra("bytes", static_cast<double>(catalog_bytes))
      .Extra("bytes_per_node", bytes_per_node)
      .Extra("edge_types", static_cast<double>(catalog->edge_types.size()))
      .Extra("hubs", static_cast<double>(catalog->hubs.size()));

  report.Write();
  return 0;
}
