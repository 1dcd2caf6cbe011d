#ifndef FRAPPE_EXTRACTOR_BUILD_MODEL_H_
#define FRAPPE_EXTRACTOR_BUILD_MODEL_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "extractor/extract.h"
#include "extractor/preprocessor.h"
#include "extractor/vfs.h"

namespace frappe::extractor {

// Drives extraction the way Frappé's compiler-wrapper scripts do: it
// understands gcc-style command lines, runs the preprocessor+parser+
// extractor over each compiled source, models outputs (objects,
// executables, libraries) as `module` nodes, and performs symbol
// resolution at link time (link_declares / link_matches / linked_from).
//
// A driver is one build: it lexes each header once, however many units
// include it, and keeps the lexed headers until it is destroyed. Their
// tokens view the Vfs, which must outlive the driver and stay unmodified
// while it lives.
class BuildDriver {
 public:
  BuildDriver(const Vfs* vfs, model::CodeGraph* graph)
      : vfs_(*vfs), extractor_(graph) {}

  // Compiles one source file into an object module:
  //   `gcc foo.c -c -o foo.o`.
  // Emits `foo.o -compiled_from-> foo.c` and extracts the unit.
  Result<graph::NodeId> Compile(const std::string& source,
                                const std::string& output,
                                const PreprocessOptions& options = {});

  // Links objects/libraries into an output module:
  //   `gcc main.o foo.o -o prog` / `ar rcs libx.a ...`.
  // Inputs that are source files are compiled directly into the output
  // (the paper's `gcc main.c foo.o -o prog` pattern: prog is
  // compiled_from main.c and linked_from foo.o).
  Result<graph::NodeId> Link(const std::vector<std::string>& inputs,
                             const std::string& output,
                             const PreprocessOptions& options = {},
                             bool is_library = false);

  // Parses and executes a gcc-like command line. Recognized: `-c`,
  // `-o OUT`, `-I DIR`, `-DNAME[=VALUE]`, *.c sources, *.o/*.a inputs.
  // The leading compiler name (gcc/cc/clang/...) is ignored, matching the
  // drop-in wrapper-script integration the paper describes.
  Status Run(const std::string& command_line);

  Extractor& extractor() { return extractor_; }
  model::CodeGraph& graph() { return extractor_.graph(); }

  // Module node for a previously built output.
  Result<graph::NodeId> ModuleFor(const std::string& output) const;

  struct Stats {
    size_t units_compiled = 0;
    size_t modules_linked = 0;
    size_t symbols_resolved = 0;
    size_t symbols_unresolved = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct ModuleInfo {
    graph::NodeId node = graph::kInvalidNode;
    std::vector<UnitSymbols> units;
  };

  graph::NodeId MakeModule(const std::string& output);

  const Vfs& vfs_;
  HeaderCache headers_;
  Extractor extractor_;
  std::map<std::string, ModuleInfo> modules_;
  Stats stats_;
};

}  // namespace frappe::extractor

#endif  // FRAPPE_EXTRACTOR_BUILD_MODEL_H_
