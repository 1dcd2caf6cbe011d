// frappe-extract: extract a real C source tree from disk into a Frappé
// snapshot, then poke at it.
//
//   extract_dir <directory> [output.db]
//
// Loads every *.c / *.h under <directory> into the virtual file system,
// compiles each .c (with the directory roots as include paths), links
// everything into one module, prints extraction statistics, and writes a
// snapshot that fql_shell (or any embedder) can open.
//
// The parser accepts a pragmatic C subset (see DESIGN.md); files that fail
// to parse are reported and skipped rather than aborting the run — on real
// trees, partial extraction beats none (the same trade-off the paper's
// wrapper scripts make by shadowing the native compiler).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/string_util.h"
#include "extractor/build_model.h"
#include "obs/query_registry.h"
#include "obs/stats_server.h"
#include "graph/snapshot_manager.h"
#include "graph/stats.h"
#include "model/code_graph.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  using namespace frappe;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <directory> [output.db]\n", argv[0]);
    return 2;
  }
  fs::path root(argv[1]);
  std::string output = argc >= 3 ? argv[2] : "frappe.db";
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "%s is not a directory\n", argv[1]);
    return 2;
  }

  // FRAPPE_STATS_PORT: expose /metrics and the /debug/* control plane
  // while a long extraction runs; FRAPPE_STUCK_QUERY_MS arms the watchdog.
  std::unique_ptr<obs::StatsServer> stats_server =
      obs::StatsServer::MaybeStartFromEnv();
  if (stats_server != nullptr) {
    std::fprintf(stderr, "stats server on http://127.0.0.1:%u\n",
                 stats_server->port());
  }
  obs::QueryRegistry::Global().MaybeStartWatchdogFromEnv();

  // Load the tree.
  extractor::Vfs vfs;
  std::vector<std::string> sources;
  std::set<std::string> include_dirs;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    std::string ext = it->path().extension().string();
    if (ext != ".c" && ext != ".h") continue;
    std::string relative = fs::relative(it->path(), root, ec).string();
    std::ifstream in(it->path(), std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    vfs.AddFile(relative, std::move(content));
    if (ext == ".c") sources.push_back(extractor::NormalizePath(relative));
    include_dirs.insert(extractor::DirName(relative));
  }
  if (sources.empty()) {
    std::fprintf(stderr, "no .c files under %s\n", argv[1]);
    return 1;
  }
  std::printf("loaded %zu files (%llu lines), %zu compilation units\n",
              vfs.FileCount(),
              static_cast<unsigned long long>(vfs.TotalLines()),
              sources.size());

  // Compile every unit; skip (but report) files the C-subset parser
  // rejects.
  model::CodeGraph graph;
  // /debug/storagez (and frappe_storage_bytes) track the growing graph
  // live while units compile.
  obs::StatsServer::SetStorageStatsProvider(
      [&graph]() -> obs::StatsServer::StorageSections {
        graph::GraphStore::MemoryBreakdown m = graph.store().EstimateMemory();
        return {{"nodes", m.nodes},
                {"relationships", m.relationships},
                {"properties", m.properties}};
      });
  extractor::BuildDriver driver(&vfs, &graph);
  extractor::PreprocessOptions options;
  options.include_dirs.assign(include_dirs.begin(), include_dirs.end());
  options.include_dirs.push_back("include");
  std::vector<std::string> objects;
  size_t failed = 0;
  for (const std::string& source : sources) {
    std::string object = source.substr(0, source.size() - 2) + ".o";
    auto result = driver.Compile(source, object, options);
    if (result.ok()) {
      objects.push_back(object);
    } else {
      ++failed;
      std::fprintf(stderr, "  skip %-40s %s\n", source.c_str(),
                   result.status().message().c_str());
    }
  }
  if (!objects.empty()) {
    auto linked = driver.Link(objects, "a.out", options,
                              /*is_library=*/true);
    if (!linked.ok()) {
      std::fprintf(stderr, "link: %s\n",
                   linked.status().ToString().c_str());
    }
  }

  auto metrics = graph::ComputeMetrics(graph.view());
  std::printf("\nextracted %zu/%zu units (%zu skipped)\n",
              objects.size(), sources.size(), failed);
  std::printf("graph: %llu nodes, %llu edges\n",
              static_cast<unsigned long long>(metrics.node_count),
              static_cast<unsigned long long>(metrics.edge_count));
  std::printf("resolved %zu cross-unit symbols (%zu unresolved/external)\n",
              driver.stats().symbols_resolved,
              driver.stats().symbols_unresolved);
  for (const auto& [kind, count] : graph::NodeTypeHistogram(graph.view())) {
    std::printf("  %-16s %llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }

  graph::NameIndex index = graph.BuildNameIndex();
  // Crash-safe save: temp file + fsync + rename, with rotated generations
  // (<output>.1, <output>.2) kept as fallbacks for corrupted snapshots.
  graph::SnapshotManager manager(output);
  auto sizes = manager.Save(graph.view(), &index);
  if (!sizes.ok()) {
    // A Corruption status here names the failing section and byte offset;
    // I/O failures carry the errno text.
    std::fprintf(stderr, "save: %s\n", sizes.status().ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%.2f MB) — open it with: fql_shell %s\n",
              output.c_str(), sizes->total() / 1048576.0, output.c_str());
  obs::QueryRegistry::Global().StopWatchdog();
  obs::StatsServer::SetStorageStatsProvider(nullptr);
  return 0;
}
