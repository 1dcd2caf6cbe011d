#ifndef FRAPPE_BENCH_KERNEL_COMMON_H_
#define FRAPPE_BENCH_KERNEL_COMMON_H_

// Shared plumbing for the table/figure reproduction benches: builds (or
// loads from a cache file) the paper-scale synthetic kernel graph and
// opens it the way a Frappé deployment would (snapshot + auto index +
// label index + schema bindings).
//
// Environment knobs:
//   FRAPPE_SCALE           graph scale factor (default 1.0 = paper scale)
//   FRAPPE_CACHE_DIR       where kernel snapshots are cached (default /tmp)
//   FRAPPE_BENCH_JSON_DIR  where BENCH_<name>.json files are written
//                          (default: current directory; see bench_json.h)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "extractor/synthetic.h"
#include "graph/indexes.h"
#include "graph/snapshot.h"
#include "model/code_graph.h"
#include "query/session.h"

namespace frappe::bench {

inline double ScaleFromEnv() {
  const char* env = std::getenv("FRAPPE_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline std::string CacheDir() {
  const char* env = std::getenv("FRAPPE_CACHE_DIR");
  return env != nullptr ? env : "/tmp";
}

inline std::string KernelCachePath(double factor) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "frappe_kernel_%.4f.db", factor);
  return CacheDir() + "/" + buf;
}

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start)
             .count() /
         1000.0;
}

// Generates the kernel graph in memory (no cache involved).
inline std::unique_ptr<model::CodeGraph> GenerateKernel(
    double factor, extractor::GraphReport* report = nullptr) {
  auto graph = std::make_unique<model::CodeGraph>(
      model::CodeGraph::Validation::kOff);
  extractor::GraphScale scale;
  scale.factor = factor;
  extractor::GraphReport r =
      extractor::GenerateKernelGraph(scale, graph.get());
  if (report != nullptr) *report = r;
  return graph;
}

// Ensures the cache file exists; returns its path.
inline std::string EnsureKernelSnapshot(double factor) {
  std::string path = KernelCachePath(factor);
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return path;
  }
  std::fprintf(stderr, "[kernel_common] generating kernel graph (scale %g)"
                       " and writing %s ...\n", factor, path.c_str());
  auto graph = GenerateKernel(factor);
  graph::NameIndex index = graph->BuildNameIndex();
  auto sizes = graph::SaveSnapshot(graph->view(), path, &index);
  if (!sizes.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", sizes.status().ToString().c_str());
    std::exit(1);
  }
  return path;
}

// A kernel database opened from a snapshot: everything needed to run FQL
// and direct-API queries.
struct OpenedKernel {
  std::unique_ptr<graph::GraphStore> store;
  graph::NameIndex name_index;
  graph::LabelIndex label_index;
  model::Schema schema;
  query::Database db;
  double open_ms = 0;  // deserialize + index attach + label scan build
};

inline std::unique_ptr<OpenedKernel> OpenKernel(const std::string& path) {
  Clock::time_point start = Clock::now();
  auto loaded = graph::LoadSnapshot(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", loaded.status().ToString().c_str());
    std::exit(1);
  }
  for (const std::string& warning : loaded->warnings) {
    std::fprintf(stderr, "[kernel_common] %s\n", warning.c_str());
  }
  auto out = std::make_unique<OpenedKernel>();
  out->store = std::move(loaded->store);
  if (loaded->index.has_value()) {
    out->name_index = std::move(*loaded->index);
  } else {
    model::CodeGraph scratch;  // field specs only
    out->name_index =
        graph::NameIndex::Build(*out->store, scratch.IndexFields());
  }
  out->label_index = graph::LabelIndex::Build(*out->store);
  out->schema = model::Schema::Install(out->store.get());
  out->db = query::MakeFrappeDatabase(*out->store, out->schema,
                                      &out->name_index, &out->label_index);
  out->open_ms = MsSince(start);
  return out;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace frappe::bench

#endif  // FRAPPE_BENCH_KERNEL_COMMON_H_
