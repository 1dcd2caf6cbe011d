#ifndef FRAPPE_GRAPH_SNAPSHOT_MANAGER_H_
#define FRAPPE_GRAPH_SNAPSHOT_MANAGER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/snapshot.h"

namespace frappe::graph {

// Manages a family of rotated snapshot generations for one logical path:
//
//   <path>      generation 0, the current snapshot
//   <path>.1    previous snapshot
//   <path>.2    the one before that, ... up to `retain` old generations
//
// Save() writes the new snapshot to a temp file (fsynced), shifts the
// existing generations (<path> -> <path>.1 -> <path>.2, dropping the
// oldest), and renames the temp file into place; one parent-directory
// fsync after the final rename makes the whole shuffle durable. A crash or
// injected fault anywhere in that sequence leaves every generation either
// complete-old or complete-new — never torn.
//
// Load() tries generation 0 first and falls back to the newest older
// generation that still verifies, so a corrupted current snapshot (e.g.
// torn by a crash mid-rotation on a pre-v2 file, or bit-rotted on disk)
// degrades to slightly stale data instead of an outage. Fallbacks bump the
// `snapshot.load.fallbacks` counter and are reported in
// `Loaded::generation` / `Loaded::generation_errors`.
struct SnapshotManagerOptions {
  // How many old generations to keep (<path>.1 .. <path>.retain).
  // 0 disables rotation: Save() just replaces <path> atomically.
  int retain = 2;
  SnapshotOptions snapshot;
};

class SnapshotManager {
 public:
  using Options = SnapshotManagerOptions;

  struct Loaded {
    LoadedSnapshot snapshot;
    std::string path;    // the file that actually loaded
    int generation = 0;  // 0 = current, 1 = <path>.1, ...
    // Why newer generations were skipped (empty when generation == 0).
    std::vector<std::string> generation_errors;
  };

  explicit SnapshotManager(std::string path, Options options = {});

  // The on-disk name of generation `g` (0 = `path()` itself).
  std::string GenerationPath(int generation) const;
  const std::string& path() const { return path_; }
  const Options& options() const { return options_; }

  // Serializes `view` and installs it as generation 0, rotating the
  // previous generations. Also removes stale `<path>.tmp.*` debris left by
  // crashed earlier saves.
  Result<SnapshotSizes> Save(const GraphView& view,
                             const NameIndex* index = nullptr);

  // Loads the newest generation that deserializes cleanly. Fails only when
  // every generation is missing or corrupt; the returned status then
  // carries one line per generation explaining why.
  Result<Loaded> Load() const;

 private:
  std::string path_;
  Options options_;
};

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_SNAPSHOT_MANAGER_H_
