#include "graph/snapshot_manager.h"

#include <cstdio>
#include <dirent.h>

#include "common/fault_injector.h"
#include "common/file_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frappe::graph {

namespace {

// Fault sites below use the same "snapshot" prefix as SaveSnapshot, so
// FRAPPE_FAULT=snapshot.fsync:1 hits both code paths identically.
constexpr std::string_view kFaultPrefix = "snapshot";

bool CrashInjected(const char* suffix) {
  common::FaultInjector& inj = common::FaultInjector::Global();
  return inj.AnyArmed() &&
         inj.ShouldFail(std::string(kFaultPrefix) + suffix);
}

// Unlinks `<path>.tmp.*` leftovers from earlier crashed saves (our own
// temp name embeds the pid, so a previous process's debris never matches
// TempPathFor of this one).
void CleanStaleTemps(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (slash == 0) dir = "/";
  std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    std::string_view name(e->d_name);
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      common::RemoveFileIfExists(dir + "/" + std::string(name));
    }
  }
  ::closedir(d);
}

}  // namespace

SnapshotManager::SnapshotManager(std::string path, Options options)
    : path_(std::move(path)), options_(options) {
  if (options_.retain < 0) options_.retain = 0;
}

std::string SnapshotManager::GenerationPath(int generation) const {
  if (generation <= 0) return path_;
  return path_ + "." + std::to_string(generation);
}

Result<SnapshotSizes> SnapshotManager::Save(const GraphView& view,
                                            const NameIndex* index) {
  FRAPPE_TRACE_SPAN("snapshot.manager.save");
  obs::Registry& reg = obs::Registry::Global();
  auto fail = [&reg](Status s) -> Status {
    reg.GetCounter("snapshot.save.failures").Add();
    return s;
  };

  std::string buffer;
  auto sizes = SerializeSnapshot(view, &buffer, index, options_.snapshot);
  if (!sizes.ok()) return fail(sizes.status());

  CleanStaleTemps(path_);

  // Make the new bytes durable under a temp name first: every later step
  // is a rename, so no generation is ever a mix of old and new data.
  std::string tmp = common::TempPathFor(path_);
  Status s = common::WriteFileDurable(tmp, buffer, kFaultPrefix);
  if (!s.ok()) {
    common::RemoveFileIfExists(tmp);
    return fail(s);
  }

  if (CrashInjected(".crash_rename")) {
    // Simulated crash between durable temp write and installation: the
    // temp file is left behind, generation 0 still holds the old bytes.
    return fail(Status::Internal("injected crash before rename: " + path_ +
                                 " (temp left at " + tmp + ")"));
  }

  // Shift old generations (best effort — a missing generation is fine,
  // and rename atomically replaces the older target). The one parent-dir
  // fsync issued by RenameFile below persists these entries too.
  for (int g = options_.retain - 1; g >= 1; --g) {
    std::rename(GenerationPath(g).c_str(), GenerationPath(g + 1).c_str());
  }
  if (options_.retain >= 1) {
    std::rename(path_.c_str(), GenerationPath(1).c_str());
  }

  s = common::RenameFile(tmp, path_, kFaultPrefix);
  if (!s.ok()) {
    common::RemoveFileIfExists(tmp);
    return fail(s);
  }
  reg.GetCounter("snapshot.save.count").Add();
  return sizes;
}

Result<SnapshotManager::Loaded> SnapshotManager::Load() const {
  FRAPPE_TRACE_SPAN("snapshot.manager.load");
  std::vector<std::string> errors;
  bool any_corrupt = false;
  for (int g = 0; g <= options_.retain; ++g) {
    std::string gen_path = GenerationPath(g);
    auto loaded = LoadSnapshot(gen_path);
    if (loaded.ok()) {
      Loaded result;
      result.snapshot = std::move(*loaded);
      result.path = std::move(gen_path);
      result.generation = g;
      result.generation_errors = std::move(errors);
      if (g > 0) {
        obs::Registry::Global().GetCounter("snapshot.load.fallbacks").Add();
        result.snapshot.warnings.push_back(
            "snapshot: generation 0 unusable; fell back to generation " +
            std::to_string(g) + " (" + result.path + ")");
        obs::LogWarn("snapshot", result.snapshot.warnings.back());
      }
      return result;
    }
    errors.push_back(gen_path + ": " + loaded.status().message());
    if (loaded.status().code() != StatusCode::kNotFound) any_corrupt = true;
  }
  std::string detail;
  for (const std::string& e : errors) {
    if (!detail.empty()) detail += "; ";
    detail += e;
  }
  // An all-missing family is NotFound (fresh start); any corrupt
  // generation makes the whole failure Corruption so callers can tell
  // "no snapshot yet" from "snapshots exist but none is usable".
  std::string msg = "no loadable snapshot generation: " + detail;
  return any_corrupt ? Status::Corruption(msg) : Status::NotFound(msg);
}

}  // namespace frappe::graph
